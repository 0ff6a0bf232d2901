package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vliwbind"
)

// Tracing. A traced run records spans around vbench's own calls into
// each layer — nothing inside the program is instrumented — and keeps
// them in memory until the run ends. Counts come from the events the
// engine already sends to Options.Observer, timestamped here on
// receipt. A span's self time is its duration minus the part of it
// that its children cover.

// span is one timed call. Spans of one operation share Req; Parent is
// the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced code
// paths call it unconditionally. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return len(t.spans)
}

// finish closes the span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span from timestamps taken elsewhere.
func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// timed runs f inside a span.
func (t *tracer) timed(name, req string, parent int, f func() error) error {
	id := t.start(name, req, parent)
	err := f()
	t.finish(id)
	return err
}

// splitBind records one bind call's B-INIT and B-ITER spans under
// parent: B-INIT from the call's start to the engine's first iter.round
// event, B-ITER from there to the call's end.
func (t *tracer) splitBind(req string, parent int, start, end, firstRound time.Time) {
	if firstRound.IsZero() {
		t.add("bind.binit", req, parent, start, end)
		return
	}
	t.add("bind.binit", req, parent, start, firstRound)
	t.add("bind.biter", req, parent, firstRound, end)
}

// all returns every span with its self time.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		var iv [][2]int64
		for _, c := range children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.Start
		for _, x := range iv {
			if x[1] <= reach {
				continue
			}
			covered += x[1] - max(x[0], reach)
			reach = x[1]
		}
		s.Self = s.End - s.Start - covered
	}
	return spans
}

// byName groups span durations and self times (ns) by span name.
func byName(spans []span) (dur, self map[string][]float64) {
	dur = make(map[string][]float64)
	self = make(map[string][]float64)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start))
		self[s.Name] = append(self[s.Name], float64(s.Self))
	}
	return dur, self
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engineTotals counts the engine's events.
type engineTotals struct {
	calls, evals, rounds    int64 // bind calls, candidate evaluations, B-ITER rounds
	cacheHits, cacheLookups int64 // memo-cache verdicts (Parallelism > 1 only)
	deltaHits, deltaEvals   int64 // incremental evaluations that saved work / all of them
	tasks, queueNs          int64 // pool tasks and their summed submit-to-start wait
	storeHits, storeLookups int64 // result-store verdicts
	points, pruned          int64 // explored design points / those pruned unbound
}

func (t *engineTotals) add(o engineTotals) {
	t.calls += o.calls
	t.evals += o.evals
	t.rounds += o.rounds
	t.cacheHits += o.cacheHits
	t.cacheLookups += o.cacheLookups
	t.deltaHits += o.deltaHits
	t.deltaEvals += o.deltaEvals
	t.tasks += o.tasks
	t.queueNs += o.queueNs
	t.storeHits += o.storeHits
	t.storeLookups += o.storeLookups
	t.points += o.points
	t.pruned += o.pruned
}

// engineLog is the Observer vbench hands the engine for one bind call
// (or one served kernel): it counts events and keeps the timestamps a
// span split needs. Event kinds are matched by name, so an event kind a
// later version stops emitting just counts zero. Safe for concurrent
// use: the engine emits from its worker-pool goroutines.
type engineLog struct {
	mu         sync.Mutex
	t          engineTotals
	firstRound time.Time // first iter.round: B-INIT ends, B-ITER begins
	missAt     time.Time // first store.miss: a served bind's search begins
	last       time.Time // the latest event
}

func (l *engineLog) Event(ev vliwbind.TraceEvent) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last = now
	switch ev.Type {
	case "iter.round":
		l.t.rounds++
		if l.firstRound.IsZero() {
			l.firstRound = now
		}
	case "eval":
		l.t.evals++
		if ev.Cache != "" {
			l.t.cacheLookups++
			if ev.Cache == "hit" {
				l.t.cacheHits++
			}
		}
	case "eval.delta":
		l.t.deltaEvals++
		if ev.Verdict == "hit" {
			l.t.deltaHits++
		}
	case "pool.batch":
		l.t.tasks += int64(ev.Tasks)
		l.t.queueNs += ev.QueueNs
	case "store.hit":
		l.t.storeLookups++
		l.t.storeHits++
	case "store.miss":
		l.t.storeLookups++
		if l.missAt.IsZero() {
			l.missAt = now
		}
	case "explore.point":
		l.t.points++
	case "explore.prune":
		l.t.points++
		l.t.pruned++
	}
}

// marks returns the log's span boundaries.
func (l *engineLog) marks() (missAt, firstRound, last time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.missAt, l.firstRound, l.last
}

// totals returns the log's counts.
func (l *engineLog) totals() engineTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t
}

// kernelLogs is the Observer a server's binds report to: the server
// runs many binds, so events are kept per graph name, which vbench makes
// unique per request wherever it needs to attribute them. It records
// only while on.
type kernelLogs struct {
	on atomic.Bool
	mu sync.Mutex
	m  map[string]*engineLog
}

func (k *kernelLogs) Event(ev vliwbind.TraceEvent) {
	if !k.on.Load() {
		return
	}
	k.mu.Lock()
	l := k.m[ev.Kernel]
	if l == nil {
		if k.m == nil {
			k.m = make(map[string]*engineLog)
		}
		l = &engineLog{}
		k.m[ev.Kernel] = l
	}
	k.mu.Unlock()
	l.Event(ev)
}

// get returns the log of one graph name, or nil.
func (k *kernelLogs) get(name string) *engineLog {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.m[name]
}

// totals sums every graph's counts.
func (k *kernelLogs) totals() engineTotals {
	k.mu.Lock()
	defer k.mu.Unlock()
	var t engineTotals
	for _, l := range k.m {
		t.add(l.totals())
	}
	return t
}

// perLayer computes the per-layer metrics of a traced run. Timings are
// medians over the named spans: those of the traced operations and
// those of the workload's layer probes (probe.go). A layer the workload
// neither reaches nor probes has no spans, and its metrics read 0.
func (e *env) perLayer() map[string]metric {
	dur, self := byName(e.tr.all())
	med := func(vals []float64, unit time.Duration) float64 {
		return quantile(vals, 0.5) / float64(unit)
	}
	var lat, tlat []float64
	for _, s := range e.samples {
		if s.traced {
			tlat = append(tlat, ms(s.lat))
		} else {
			lat = append(lat, ms(s.lat))
		}
	}
	late := make([]float64, len(e.late))
	for i, d := range e.late {
		late[i] = ms(d)
	}
	t := e.eng
	return map[string]metric{
		"problem.evaluate_us":     {med(dur["problem.evaluate"], time.Microsecond), "us"},
		"problem.new_us":          {med(dur["problem.new"], time.Microsecond), "us"},
		"bind.evals_per_call":     {ratio(float64(t.evals), float64(t.calls)), "count"},
		"bind.rounds_per_call":    {ratio(float64(t.rounds), float64(t.calls)), "count"},
		"bind.binit_ms":           {med(dur["bind.binit"], time.Millisecond), "ms"},
		"bind.biter_ms":           {med(dur["bind.biter"], time.Millisecond), "ms"},
		"bind.delta_hit_ratio":    {ratio(float64(t.deltaHits), float64(t.deltaEvals)), "ratio"},
		"bind.cache_hit_ratio":    {ratio(float64(t.cacheHits), float64(t.cacheLookups)), "ratio"},
		"bind.pool_queue_ms":      {ratio(float64(t.queueNs)/1e6, float64(t.tasks)), "ms"},
		"textio.parse_us":         {med(dur["textio.parse"], time.Microsecond), "us"},
		"store.canonicalize_us":   {med(dur["store.canonicalize"], time.Microsecond), "us"},
		"store.get_us":            {med(dur["store.get"], time.Microsecond), "us"},
		"store.put_us":            {med(dur["store.put"], time.Microsecond), "us"},
		"store.hit_ratio":         {ratio(float64(t.storeHits), float64(t.storeLookups)), "ratio"},
		"vliwbind.store_hit_us":   {med(dur["vliwbind.store_hit"], time.Microsecond), "us"},
		"audit.audit_us":          {med(dur["audit.audit"], time.Microsecond), "us"},
		"optbind.bound_us":        {med(dur["optbind.bound"], time.Microsecond), "us"},
		"server.handler_ms_p50":   {quantile(dur["server.handler"], 0.50) / 1e6, "ms"},
		"server.handler_ms_p99":   {quantile(dur["server.handler"], 0.99) / 1e6, "ms"},
		"server.http_overhead_us": {med(self["http.request"], time.Microsecond), "us"},
		"loadgen.late_ms_p99":     {quantile(late, 0.99), "ms"},
		"explore.pruned_ratio":    {ratio(float64(t.pruned), float64(t.points)), "ratio"},
		"explore.point_ms":        {med(dur["explore.point"], time.Millisecond), "ms"},
		"trace.overhead_ratio":    {ratio(quantile(tlat, 0.5), quantile(lat, 0.5)), "ratio"},
	}
}
