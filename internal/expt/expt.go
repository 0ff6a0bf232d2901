// Package expt defines and runs the paper's experiments: every row of
// Table 1 (seven benchmarks across two- to four-cluster datapaths with
// N_B = 2 and lat(move) = 1) and Table 2 (the FFT kernel on a five-cluster
// datapath sweeping bus count and transfer latency). Each row records the
// paper's published (L, M) values for PCC, B-INIT and B-ITER next to the
// measured ones, so paper-versus-measured comparisons and the EXPERIMENTS
// log regenerate from one place.
package expt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"vliwbind/internal/anneal"
	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/mincut"
	"vliwbind/internal/obs"
	"vliwbind/internal/pcc"
)

// phaseEvent reports one finished algorithm stage of a row to the
// options' observer, so an experiment trace carries the same coarse
// timings the Measurement records.
func phaseEvent(o obs.Observer, row, algo string, took time.Duration) {
	if o != nil {
		o.Event(obs.Event{Type: obs.EvPhase, Kernel: row,
			Name: "expt." + algo, DurNs: took.Nanoseconds()})
	}
}

// LM is a (schedule latency, data transfers) result pair, the unit in
// which the paper reports every experiment.
type LM struct {
	L, M int
}

func (v LM) String() string { return fmt.Sprintf("%d/%d", v.L, v.M) }

// IsZero reports whether the pair is unset.
func (v LM) IsZero() bool { return v.L == 0 && v.M == 0 }

// Row is one experiment: a benchmark on a datapath configuration, with
// the paper's published results attached.
type Row struct {
	// Table is 1 or 2 (which paper table the row belongs to).
	Table int
	// Kernel is the benchmark name (see internal/kernels).
	Kernel string
	// Clusters is the datapath in the paper's [a,m|a,m|…] notation.
	Clusters string
	// NumBuses and MoveLat give N_B and lat(move); Table 1 fixes them at
	// 2 and 1, Table 2 sweeps them.
	NumBuses, MoveLat int
	// Topology selects the interconnect ("" or machine.TopoBus is the
	// paper's shared bus); LinkCap sizes the routed topologies' links.
	// The paper's tables never set either — they exist for the
	// topology-comparison experiments.
	Topology string
	LinkCap  int
	// PaperPCC, PaperInit, PaperIter are the paper's published (L, M)
	// values for the three algorithms on this row.
	PaperPCC, PaperInit, PaperIter LM
}

// Datapath builds the machine model for the row.
func (r Row) Datapath() (*machine.Datapath, error) {
	return machine.Parse(r.Clusters, machine.Config{
		NumBuses: r.NumBuses, MoveLat: r.MoveLat,
		Topology: r.Topology, LinkCap: r.LinkCap,
	})
}

// Name identifies the row in logs and test output.
func (r Row) Name() string {
	topo := ""
	if r.Topology != "" && r.Topology != machine.TopoBus {
		topo = " @" + r.Topology
	}
	if r.Table == 2 {
		return fmt.Sprintf("FFT %s NB=%d lat=%d%s", r.Clusters, r.NumBuses, r.MoveLat, topo)
	}
	return fmt.Sprintf("%s %s%s", r.Kernel, r.Clusters, topo)
}

// Measurement is the outcome of running all three algorithms on a row.
type Measurement struct {
	Row
	PCC, Init, Iter             LM
	PCCTime, InitTime, IterTime time.Duration
	// PCCDegraded, InitDegraded and IterDegraded report that the
	// corresponding algorithm's budget (see RunBudgeted) expired before
	// it ran to completion. A degraded flag with a non-zero LM means the
	// value is the audited best-so-far; with a zero LM the budget
	// expired before the algorithm certified any candidate at all.
	PCCDegraded, InitDegraded, IterDegraded bool
}

// DeltaInit is the paper's ΔL% for B-INIT versus PCC (positive when
// B-INIT is faster). The paper normalizes by its own latency, not PCC's:
// ΔL% = (L_PCC − L)/L — that is how Table 1's "25" for 10→8 and the
// abstract's "29%" for 9→7 arise.
func (m Measurement) DeltaInit() float64 { return delta(m.PCC.L, m.Init.L) }

// DeltaIter is ΔL% for B-ITER versus PCC, under the same normalization
// as DeltaInit.
func (m Measurement) DeltaIter() float64 { return delta(m.PCC.L, m.Iter.L) }

func delta(pccL, v int) float64 {
	if v == 0 {
		return 0
	}
	return 100 * float64(pccL-v) / float64(v)
}

// Run executes PCC, B-INIT and B-ITER on the row with the default
// (paper-published) algorithm settings and returns the measurements.
func Run(r Row) (Measurement, error) { return RunWith(r, bind.Options{}) }

// RunWith is Run with explicit binding options — most usefully
// Options.Parallelism, which sizes the evaluation worker pool of B-INIT
// and B-ITER (PCC is unaffected). Measured (L, M) values are identical
// at any parallelism; only the times change.
func RunWith(r Row, opts bind.Options) (Measurement, error) {
	return RunBudgeted(context.Background(), r, opts, 0)
}

// RunBudgeted is RunWith under a per-row time budget: the three
// algorithms share one context that expires budget after the row starts
// (budget <= 0 applies no per-row deadline beyond ctx's own). An
// algorithm whose budget expires mid-run contributes its audited
// best-so-far (L, M) with the matching Degraded flag set; one whose
// budget expires before it certifies any candidate contributes a zero
// LM with the flag set. Only non-budget failures abort the row.
func RunBudgeted(ctx context.Context, r Row, opts bind.Options, budget time.Duration) (Measurement, error) {
	k, err := kernels.ByName(r.Kernel)
	if err != nil {
		return Measurement{}, err
	}
	g := k.Build()
	dp, err := r.Datapath()
	if err != nil {
		return Measurement{}, err
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	m := Measurement{Row: r}

	// record folds one algorithm's outcome into the measurement: a
	// budget-expiry error (no candidate) is not a row failure, and every
	// result — degraded or not — is audited before its (L, M) is kept.
	record := func(algo string, res *bind.Result, err error, lm *LM, deg *bool, took *time.Duration, t0 time.Time) error {
		*took = time.Since(t0)
		phaseEvent(opts.Observer, r.Name(), algo, *took)
		if err != nil {
			if errors.Is(err, context.Cause(ctx)) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				*deg = true
				return nil
			}
			return fmt.Errorf("expt %s: %s: %w", r.Name(), algo, err)
		}
		if err := audit.Audit(res); err != nil {
			return fmt.Errorf("expt %s: %s result failed audit: %w", r.Name(), algo, err)
		}
		*lm = LM{res.L(), res.Moves()}
		*deg = res.Degraded
		return nil
	}

	t0 := time.Now()
	pres, err := pcc.BindContext(ctx, g, dp, pcc.Options{Observer: opts.Observer})
	if err := record("pcc", pres, err, &m.PCC, &m.PCCDegraded, &m.PCCTime, t0); err != nil {
		return Measurement{}, err
	}

	t0 = time.Now()
	ini, err := bind.InitialContext(ctx, g, dp, opts)
	if err := record("b-init", ini, err, &m.Init, &m.InitDegraded, &m.InitTime, t0); err != nil {
		return Measurement{}, err
	}

	t0 = time.Now()
	imp, err := bind.BindContext(ctx, g, dp, opts)
	if err := record("b-iter", imp, err, &m.Iter, &m.IterDegraded, &m.IterTime, t0); err != nil {
		return Measurement{}, err
	}
	return m, nil
}

// RunAllBudgeted measures a set of rows in order, each under its own
// budget. A ctx that expires outright stops the sweep and returns the
// rows measured so far along with ctx's cause.
func RunAllBudgeted(ctx context.Context, rows []Row, opts bind.Options, budget time.Duration) ([]Measurement, error) {
	out := make([]Measurement, 0, len(rows))
	for _, r := range rows {
		if ctx.Err() != nil {
			return out, context.Cause(ctx)
		}
		m, err := RunBudgeted(ctx, r, opts, budget)
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
	return out, nil
}

// RunAll measures a set of rows in order.
func RunAll(rows []Row) ([]Measurement, error) {
	out := make([]Measurement, 0, len(rows))
	for _, r := range rows {
		m, err := Run(r)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Format renders measurements in the paper's table layout, one row per
// experiment with measured (L/M, ΔL%, time) triples and the paper's
// published values alongside.
func Format(ms []Measurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s | %-14s | %-22s | %-22s | %s\n",
		"EXPERIMENT", "PCC L/M (ms)", "B-INIT L/M dL% (ms)", "B-ITER L/M dL% (s)", "PAPER pcc init iter")
	b.WriteString(strings.Repeat("-", 120) + "\n")
	kernel := ""
	for _, m := range ms {
		if m.Table == 1 && m.Kernel != kernel {
			kernel = m.Kernel
			k, err := kernels.ByName(kernel)
			if err == nil {
				fmt.Fprintf(&b, "%s: N_V=%d N_CC=%d L_CP=%d\n", kernel, k.NumOps, k.NumComponents, k.CriticalPath)
			}
		}
		paper := "-"
		if !m.PaperPCC.IsZero() {
			paper = fmt.Sprintf("%s %s %s", m.PaperPCC, m.PaperInit, m.PaperIter)
		}
		fmt.Fprintf(&b, "%-28s | %6s %7.1f | %6s %+5.1f%% %7.1f | %6s %+5.1f%% %7.2f | %s\n",
			m.Name(),
			lmCell(m.PCC, m.PCCDegraded), msec(m.PCCTime),
			lmCell(m.Init, m.InitDegraded), m.DeltaInit(), msec(m.InitTime),
			lmCell(m.Iter, m.IterDegraded), m.DeltaIter(), m.IterTime.Seconds(),
			paper)
	}
	return b.String()
}

// lmCell renders one measured pair; budget-degraded values carry a "*"
// (a zero degraded pair — no candidate before the budget expired —
// renders as "-*"). Complete runs are unchanged, so budget-free tables
// are byte-identical to what they always were.
func lmCell(v LM, degraded bool) string {
	if !degraded {
		return v.String()
	}
	if v.IsZero() {
		return "-*"
	}
	return v.String() + "*"
}

func msec(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// FormatMarkdown renders measurements as the Markdown table used in
// EXPERIMENTS.md, paper values beside measured ones.
func FormatMarkdown(ms []Measurement) string {
	var b strings.Builder
	b.WriteString("| Row | paper PCC | paper B-INIT | paper B-ITER | meas. PCC (ms) | meas. B-INIT (ms) | meas. B-ITER (s) |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, m := range ms {
		name := strings.ReplaceAll(m.Name(), "|", "\\|")
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s (%.1f) | %s (%.1f) | %s (%.2f) |\n",
			name, m.PaperPCC, m.PaperInit, m.PaperIter,
			m.PCC, msec(m.PCCTime),
			m.Init, msec(m.InitTime),
			m.Iter, m.IterTime.Seconds())
	}
	return b.String()
}

// BaselineMeasurement is the outcome of running all five binders on one
// row — the two related-work baselines of Section 4 next to the paper's
// algorithms.
type BaselineMeasurement struct {
	Row
	Iter, PCC, Anneal, MinCut             LM
	IterCut, PCCCut, AnnealCut, MinCutCut int
}

// BaselineRows returns the homogeneous-machine subset used for the
// five-way comparison (min-cut partitioning requires homogeneous
// clusters).
func BaselineRows() []Row {
	keep := map[string]bool{
		"ARF [1,1|1,1]":         true,
		"FFT [2,1|2,1]":         true,
		"EWF [2,1|2,1]":         true,
		"DCT-DIT [1,1|1,1|1,1]": true,
		"DCT-LEE [1,1|1,1]":     true,
	}
	var rows []Row
	for _, r := range Table1() {
		if keep[r.Name()] {
			rows = append(rows, r)
		}
	}
	return rows
}

// RunBaselines measures B-ITER, PCC, simulated annealing and min-cut on
// one row, recording latency, moves, and the cut size each solution
// implies (the objective min-cut optimizes).
func RunBaselines(r Row) (BaselineMeasurement, error) {
	k, err := kernels.ByName(r.Kernel)
	if err != nil {
		return BaselineMeasurement{}, err
	}
	g := k.Build()
	dp, err := r.Datapath()
	if err != nil {
		return BaselineMeasurement{}, err
	}
	m := BaselineMeasurement{Row: r}

	bi, err := bind.Bind(g, dp, bind.Options{})
	if err != nil {
		return m, err
	}
	m.Iter, m.IterCut = LM{bi.L(), bi.Moves()}, mincut.CutSize(g, bi.Binding)

	p, err := pcc.Bind(g, dp, pcc.Options{})
	if err != nil {
		return m, err
	}
	m.PCC, m.PCCCut = LM{p.L(), p.Moves()}, mincut.CutSize(g, p.Binding)

	sa, err := anneal.Bind(g, dp, anneal.Options{Seed: 1})
	if err != nil {
		return m, err
	}
	m.Anneal, m.AnnealCut = LM{sa.L(), sa.Moves()}, mincut.CutSize(g, sa.Binding)

	mc, err := mincut.Bind(g, dp, mincut.Options{})
	if err != nil {
		return m, err
	}
	m.MinCut, m.MinCutCut = LM{mc.L(), mc.Moves()}, mincut.CutSize(g, mc.Binding)

	for _, v := range []struct {
		algo string
		res  *bind.Result
	}{{"b-iter", bi}, {"pcc", p}, {"anneal", sa}, {"mincut", mc}} {
		if err := audit.Audit(v.res); err != nil {
			return m, fmt.Errorf("expt %s: %s result failed audit: %w", r.Name(), v.algo, err)
		}
	}
	return m, nil
}

// FormatBaselines renders the five-way comparison; "cut" columns show the
// inter-cluster edge count each binding implies.
func FormatBaselines(ms []BaselineMeasurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s | %-14s | %-14s | %-16s | %s\n",
		"EXPERIMENT", "B-ITER L/M cut", "PCC L/M cut", "ANNEAL L/M cut", "MINCUT L/M cut")
	b.WriteString(strings.Repeat("-", 100) + "\n")
	for _, m := range ms {
		fmt.Fprintf(&b, "%-24s | %6s %4d | %6s %4d | %6s %4d | %6s %4d\n",
			m.Name(),
			m.Iter, m.IterCut, m.PCC, m.PCCCut,
			m.Anneal, m.AnnealCut, m.MinCut, m.MinCutCut)
	}
	return b.String()
}

// topoClusters is the cluster structure of the topology comparison: three
// minimal clusters, where inter-cluster traffic is plentiful enough for
// the interconnect to matter but the FU mix never masks it.
const topoClusters = "[1,1|1,1|1,1]"

// TopologyMeasurement compares B-ITER's solution quality for one kernel
// across interconnect topologies on the same cluster structure: the
// paper's shared bus (N_B = 2), a unidirectional-capacity-1 ring, and a
// full point-to-point crossbar.
type TopologyMeasurement struct {
	Kernel         string
	Bus, Ring, P2P LM
	// RingDiffers / P2PDiffers report that the routed topology led
	// B-ITER to a different binding than the shared bus did — the
	// interconnect model steering the search, not just re-costing it.
	RingDiffers, P2PDiffers bool
}

// TopologyKernels lists the benchmarks of the topology comparison: every
// Table 1 kernel measured on the three-cluster datapath.
func TopologyKernels() []string {
	var ks []string
	seen := map[string]bool{}
	for _, r := range Table1() {
		if r.Clusters == topoClusters && !seen[r.Kernel] {
			seen[r.Kernel] = true
			ks = append(ks, r.Kernel)
		}
	}
	return ks
}

// RunTopologyComparison measures one kernel across the three topologies,
// auditing every solution end to end.
func RunTopologyComparison(kernel string) (TopologyMeasurement, error) {
	k, err := kernels.ByName(kernel)
	if err != nil {
		return TopologyMeasurement{}, err
	}
	g := k.Build()
	m := TopologyMeasurement{Kernel: kernel}
	var busBinding []int
	for _, tc := range []struct {
		topo string
		lm   *LM
		diff *bool
	}{
		{machine.TopoBus, &m.Bus, nil},
		{machine.TopoRing, &m.Ring, &m.RingDiffers},
		{machine.TopoP2P, &m.P2P, &m.P2PDiffers},
	} {
		r := Row{Kernel: kernel, Clusters: topoClusters, NumBuses: 2, MoveLat: 1,
			Topology: tc.topo, LinkCap: 1}
		dp, err := r.Datapath()
		if err != nil {
			return m, err
		}
		res, err := bind.Bind(g, dp, bind.Options{})
		if err != nil {
			return m, fmt.Errorf("expt %s @%s: %w", kernel, tc.topo, err)
		}
		if err := audit.Audit(res); err != nil {
			return m, fmt.Errorf("expt %s @%s failed audit: %w", kernel, tc.topo, err)
		}
		*tc.lm = LM{res.L(), res.Moves()}
		if tc.diff == nil {
			busBinding = append([]int(nil), res.Binding...)
		} else {
			*tc.diff = !equalInts(res.Binding, busBinding)
		}
	}
	return m, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FormatTopologies renders the topology comparison; a trailing "≠"
// marks routed solutions whose binding differs from the shared-bus one.
func FormatTopologies(ms []TopologyMeasurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "B-ITER on %s under three interconnects (L/M)\n", topoClusters)
	fmt.Fprintf(&b, "%-12s | %-10s | %-12s | %s\n", "KERNEL", "BUS NB=2", "RING cap=1", "P2P cap=1")
	b.WriteString(strings.Repeat("-", 56) + "\n")
	mark := func(differs bool) string {
		if differs {
			return " ≠"
		}
		return ""
	}
	for _, m := range ms {
		fmt.Fprintf(&b, "%-12s | %-10s | %-12s | %s\n",
			m.Kernel, m.Bus.String(),
			m.Ring.String()+mark(m.RingDiffers),
			m.P2P.String()+mark(m.P2PDiffers))
	}
	return b.String()
}
