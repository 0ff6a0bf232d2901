package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// sample is one timed operation: a bind call, a served request or an
// exploration sweep. An operation that is neither good, degraded nor
// rejected failed: no answer, a wrong one, or one past its deadline.
type sample struct {
	input    int           // index of the distinct input it ran
	lat      time.Duration // wall time; served requests count from their due time
	good     bool          // an audited, complete answer within its deadline
	degraded bool          // an audited answer from a budget-truncated search
	rejected bool          // refused by admission control (429 or 503)
	traced   bool          // ran in the traced half of a traced run
	alloc    uint64        // heap bytes a closed-loop operation allocated (untraced only)
}

func (s sample) failed() bool { return !s.good && !s.degraded && !s.rejected }

// quality is one distinct input's outcome: schedule length and moves,
// with the critical path and op count they are normalized by.
type quality struct{ L, M, CP, Ops int }

// maxWrong bounds how many wrong-output messages a ledger keeps; the
// count of wrong outputs is always exact.
const maxWrong = 20

// env is one run's shared state: the samples and counters the workload
// records and everything the ledger is assembled from.
type env struct {
	cfg     config
	setups  []time.Duration
	samples []sample
	repeats bool            // every input repeats each pass (closed loops)
	busy    time.Duration   // time the system under test spent on untraced samples
	allocs  uint64          // heap bytes allocated by untraced operations
	rssMB   float64         // resident set peak of the untraced phase (rss.go)
	cal     calibrator      // the reference task's times (calib.go)
	tr      *tracer         // spans of the traced half; nil in untraced runs
	eng     engineTotals    // the engine's events during traced operations
	late    []time.Duration // how far past due the generator sent each request
	qual    map[int]quality
	nWrong  int
	wrong   []string
	errors  int
	probes  []probeItem     // one per distinct input of the traced half
	probed  map[string]bool // keys of the inputs in probes
}

// probe adds a distinct input of the traced half, under key, to the
// inputs the layer probes run on.
func (e *env) probe(key string, it probeItem) {
	if !e.probed[key] {
		e.probed[key] = true
		e.probes = append(e.probes, it)
	}
}

func newEnv(cfg config) *env {
	e := &env{cfg: cfg, qual: make(map[int]quality), probed: make(map[string]bool)}
	if cfg.Trace {
		e.tr = newTracer()
	}
	return e
}

// wrongf records a wrong output.
func (e *env) wrongf(format string, args ...any) {
	e.nWrong++
	if len(e.wrong) < maxWrong {
		e.wrong = append(e.wrong, fmt.Sprintf(format, args...))
	}
}

// errorf records an operation that failed outright (no answer at all).
func (e *env) errorf(format string, args ...any) {
	e.errors++
	fmt.Fprintf(os.Stderr, "vbench: "+format+"\n", args...)
}

// result records input's (L, M) and checks it against the first answer
// that input produced in this run: every binder here is deterministic,
// and the observer is passive, so a difference is a wrong output.
func (e *env) result(input int, what string, q quality) bool {
	first, seen := e.qual[input]
	if !seen {
		e.qual[input] = q
		return true
	}
	if first.L != q.L || first.M != q.M {
		e.wrongf("%s: (L, M) = (%d, %d), but the same input gave (%d, %d) earlier in the run",
			what, q.L, q.M, first.L, first.M)
		return false
	}
	return true
}

// scratchDir makes a fresh directory for a journal-backed store under
// the run's output directory.
func (e *env) scratchDir(prefix string) (string, error) {
	base := filepath.Join(e.cfg.Out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// ledger assembles the run's ledger.
func (e *env) ledger() *ledger {
	failed := 0
	for _, s := range e.samples {
		if s.failed() {
			failed++
		}
	}
	led := &ledger{
		Workload:   e.cfg.Workload,
		Seed:       e.cfg.Seed,
		Seconds:    e.cfg.Seconds,
		Trace:      e.cfg.Trace,
		Correct:    e.nWrong == 0,
		Attempted:  len(e.samples),
		Failed:     failed,
		HostFactor: e.cal.factor(),
		Metrics:    e.endToEnd(),
		Counts:     e.counts(),
		Wrong:      e.wrong,
	}
	if e.cfg.Trace {
		led.Layers = e.perLayer()
	}
	return led
}

// outcomes counts samples by outcome.
type outcomes struct{ attempted, good, degraded, rejected, failed int }

// untraced returns the latencies (ms) of the untraced samples that got a
// good answer, overall and grouped by input; every input the untraced
// samples ran; and their outcomes. Failed, degraded and rejected
// operations stay out of the latencies, so a fast refusal or a truncated
// search cannot make the system look faster: they show in the outcome
// ratios instead.
func (e *env) untraced() (lat []float64, byInput map[int][]float64, inputs map[int]bool, n outcomes) {
	byInput = make(map[int][]float64)
	inputs = make(map[int]bool)
	for _, s := range e.samples {
		if s.traced {
			continue
		}
		n.attempted++
		inputs[s.input] = true
		switch {
		case s.good:
			n.good++
			l := ms(s.lat)
			lat = append(lat, l)
			byInput[s.input] = append(byInput[s.input], l)
		case s.degraded:
			n.degraded++
		case s.rejected:
			n.rejected++
		default:
			n.failed++
		}
	}
	return lat, byInput, inputs, n
}

// totals sums the quality of the given distinct inputs.
func (e *env) totals(inputs map[int]bool) (q quality) {
	for in := range inputs {
		r := e.qual[in]
		q.L += r.L
		q.M += r.M
		q.CP += r.CP
		q.Ops += r.Ops
	}
	return q
}

// endToEnd computes the end-to-end metrics from the untraced samples.
// Where every input repeats each pass, each input enters the
// percentiles as its median: the percentiles then say how slow the
// inputs are, not which pass the host happened to be busy in.
// Served requests keep their own latencies: their tail is queueing,
// which is the system's own.
//
// The outcome metrics are the complements of the failed, rejected and
// degraded shares, so that they are never 0 and a relative bound applies
// to them: near 1, a relative bound is the same as an absolute one.
func (e *env) endToEnd() map[string]metric {
	lat, byInput, inputs, n := e.untraced()
	meds := make([]float64, 0, len(byInput))
	med := make(map[int]float64, len(byInput))
	for in, v := range byInput {
		med[in] = quantile(v, 0.5)
		meds = append(meds, med[in])
	}
	if e.repeats {
		// Every input enters equally often, as many times as the input
		// with the fewest good samples: a run that stops mid-pass must
		// not tip a percentile that falls between two inputs' medians
		// toward either of them.
		k := 0
		for _, v := range byInput {
			if k == 0 || len(v) < k {
				k = len(v)
			}
		}
		lat = lat[:0]
		for _, m := range med {
			for j := 0; j < k; j++ {
				lat = append(lat, m)
			}
		}
	}
	setups := make([]float64, len(e.setups))
	for i, d := range e.setups {
		setups[i] = d.Seconds()
	}
	// Time metrics are scaled to the nominal host (calib.go). So is a
	// closed loop's busy time; an open loop's is the stream's length,
	// which its rate fixes.
	f := e.cal.factor()
	busy := e.busy.Seconds()
	if e.repeats {
		busy *= f
	}
	q := e.totals(inputs)
	share := func(k int) float64 { return 1 - ratio(float64(k), float64(n.attempted)) }
	return map[string]metric{
		"setup_s":          {f * quantile(setups, 0.5), "s"},
		"latency_p50_ms":   {f * quantile(lat, 0.50), "ms"},
		"latency_p95_ms":   {f * quantile(lat, 0.95), "ms"},
		"latency_p99_ms":   {f * quantile(lat, 0.99), "ms"},
		"input_ms_geomean": {f * geomean(meds), "ms"},
		"goodput_rps":      {ratio(float64(n.good), busy), "req/s"},
		"pass_ratio":       {share(n.failed), "ratio"},
		"admitted_ratio":   {share(n.rejected), "ratio"},
		"complete_ratio":   {share(n.degraded), "ratio"},
		"sched_len_ratio":  {ratio(float64(q.L), float64(q.CP)), "ratio"},
		"moves_per_op":     {ratio(float64(q.M), float64(q.Ops)), "moves/op"},
		"peak_rss_mb":      {e.rssMB, "MB"},
		"alloc_kb_per_op":  {ratio(float64(e.allocs)/1024, float64(n.attempted)), "KB"},
	}
}

// counts returns the exact totals behind the metrics.
func (e *env) counts() map[string]int64 {
	lat, _, inputs, n := e.untraced()
	q := e.totals(inputs)
	beyond := func(p float64) int64 {
		cut, n := quantile(lat, p), int64(0)
		for _, l := range lat {
			if l > cut {
				n++
			}
		}
		return n
	}
	return map[string]int64{
		"sched_len_total":  int64(q.L),
		"moves_total":      int64(q.M),
		"inputs":           int64(len(inputs)),
		"samples":          int64(n.attempted),
		"samples_good":     int64(n.good),
		"samples_degraded": int64(n.degraded),
		"samples_rejected": int64(n.rejected),
		"samples_failed":   int64(n.failed),
		"samples_traced":   int64(len(e.samples) - n.attempted),
		"busy_ms":          e.busy.Milliseconds(),
		"beyond_p95":       beyond(0.95),
		"beyond_p99":       beyond(0.99),
		"errors":           int64(e.errors),
		"wrong":            int64(e.nWrong),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// geomean returns the geometric mean of positive values; 0 when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
