package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json that -compare reads: each
// metric's direction, and each end-to-end metric's bound — the share of
// the old median by which it may worsen before it counts as worse.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runCompare implements vbench -compare OLD... -- NEW...: it reads two
// sets of ledgers and prints, per (workload, metric), the two medians,
// the change, the larger run-to-run spread, and a verdict. It exits 1
// when an end-to-end metric got worse, or when a new run produced a
// wrong output or had a failed operation.
func runCompare(benchPath string, args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "vbench: usage: vbench -compare OLD.json... -- NEW.json...")
		return 2
	}
	var def benchDef
	b, err := os.ReadFile(benchPath)
	if err == nil {
		err = json.Unmarshal(b, &def)
	}
	if err != nil {
		fmt.Fprintf(stderr, "vbench: %s: %v\n", benchPath, err)
		return 1
	}
	old, err := readLedgers(args[:split])
	if err == nil {
		var cur map[string][]*ledger
		if cur, err = readLedgers(args[split+1:]); err == nil {
			if compareLedgers(stdout, def, old, cur) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "vbench: %v\n", err)
	return 1
}

// readLedgers reads ledger files and groups them by workload.
func readLedgers(paths []string) (map[string][]*ledger, error) {
	out := make(map[string][]*ledger)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var l ledger
		if err := json.Unmarshal(b, &l); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[l.Workload] = append(out[l.Workload], &l)
	}
	return out, nil
}

// compareLedgers prints, for each workload present on both sides, its
// wrong runs and failed operations, then one row per metric present on
// both sides, and reports whether the new side regressed.
func compareLedgers(w io.Writer, def benchDef, old, cur map[string][]*ledger) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tspread\tverdict\t")
	var names []string
	for wl := range old {
		if cur[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	row := func(wl, name, better string, bound float64, get func(*ledger) (metric, bool)) string {
		ov, nv := values(old[wl], get), values(cur[wl], get)
		if len(ov) == 0 || len(nv) == 0 {
			return ""
		}
		v, change, spread := judge(ov, nv, better != "higher", bound)
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%s\t\n", wl, name,
			quantile(ov, 0.5), quantile(nv, 0.5), 100*change, 100*spread, v)
		return v
	}
	for _, wl := range names {
		// A wrong output or a failed operation on the new side is a
		// regression whatever the metrics say: a fast failure can make
		// the latencies look better.
		wrongOld, failedOld := failures(old[wl])
		wrongNew, failedNew := failures(cur[wl])
		v := "unchanged"
		if wrongNew > 0 || failedNew > 0 {
			v, regressed = "worse", true
		}
		fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d/%d\t\t\t%s\t\n", wl, "wrong/failed", wrongOld, failedOld, wrongNew, failedNew, v)
		for _, m := range def.EndToEnd {
			name := m.Name
			get := func(l *ledger) (metric, bool) { v, ok := l.Metrics[name]; return v, ok }
			if row(wl, name, m.Better, m.Bound, get) == "worse" {
				regressed = true
			}
		}
		for _, m := range def.PerLayer {
			name := m.Name
			row(wl, name, m.Better, -1, func(l *ledger) (metric, bool) { v, ok := l.Layers[name]; return v, ok })
		}
	}
	tw.Flush()
	return regressed
}

// failures counts the runs that produced a wrong output and the failed
// operations of all runs.
func failures(ls []*ledger) (wrongRuns, failed int) {
	for _, l := range ls {
		if !l.Correct {
			wrongRuns++
		}
		failed += l.Failed
	}
	return wrongRuns, failed
}

func values(ls []*ledger, get func(*ledger) (metric, bool)) []float64 {
	var out []float64
	for _, l := range ls {
		if m, ok := get(l); ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge compares a metric's old and new runs. change is the relative
// change of the median, positive when worse; spread is the larger of the
// two sides' interquartile range over median. A negative bound means the
// metric has none (a per-layer metric). In order:
//
//   - every new run beats every old one, by more than the old runs'
//     spread: better;
//   - every new run loses to every old one, by more than the old runs'
//     spread and (with a bound) by more than the bound: worse;
//   - without a bound: unchanged if the change is within the spread,
//     else unresolved;
//   - with a bound: unresolved if the spread exceeds it; worse or better
//     if the change does; unchanged otherwise.
func judge(old, cur []float64, lowerBetter bool, bound float64) (verdict string, change, spread float64) {
	mo, mn := quantile(old, 0.5), quantile(cur, 0.5)
	change = relChange(mo, mn, lowerBetter)
	spreadOld := relIQR(old)
	spread = max(spreadOld, relIQR(cur))
	allBetter, allWorse := separated(old, cur, lowerBetter)
	hasBound := bound >= 0
	switch {
	case allBetter && -change > spreadOld:
		return "better", change, spread
	case allWorse && change > spreadOld && (!hasBound || change > bound):
		return "worse", change, spread
	case !hasBound && math.Abs(change) <= spread:
		return "unchanged", change, spread
	case !hasBound:
		return "unresolved", change, spread
	case spread > bound:
		return "unresolved", change, spread
	case change > bound:
		return "worse", change, spread
	case -change > bound:
		return "better", change, spread
	}
	return "unchanged", change, spread
}

// relChange is (new−old)/old, signed so that positive is worse.
func relChange(old, cur float64, lowerBetter bool) float64 {
	d := cur - old
	if !lowerBetter {
		d = -d
	}
	if old == 0 {
		switch {
		case d == 0:
			return 0
		case d > 0:
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return d / math.Abs(old)
}

// relIQR is the interquartile range over the median.
func relIQR(xs []float64) float64 {
	iqr := quantile(xs, 0.75) - quantile(xs, 0.25)
	if m := math.Abs(quantile(xs, 0.5)); m > 0 {
		return iqr / m
	}
	if iqr == 0 {
		return 0
	}
	return math.Inf(1)
}

// separated reports whether every new run beats every old run, or loses
// to every one.
func separated(old, cur []float64, lowerBetter bool) (allBetter, allWorse bool) {
	oLo, oHi := minMax(old)
	nLo, nHi := minMax(cur)
	if lowerBetter {
		return nHi < oLo, nLo > oHi
	}
	return nLo > oHi, nHi < oLo
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
