package bind

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/obs"
	"vliwbind/internal/problem"
)

// This file is the parallel evaluation engine shared by both binding
// phases. The expensive inner operation of the whole algorithm is
// candidate evaluation — move synthesis plus a full list schedule — and
// both the B-INIT driver sweep and every B-ITER perturbation round run
// many evaluations on candidates that are completely independent of each
// other. The engine scores each such batch through one method, score,
// at every Parallelism: it drops repeated bindings, answers the ones the
// previous batch scored from that batch's compact (L, M, Q_U) records,
// and runs the rest on a size-bounded worker pool, giving each worker
// its own problem.Evaluator (reusable scratch, no bound graph
// materialized per candidate). The final answer stays bit-identical at
// any pool size: candidates are collected into index-ordered slices and
// reduced in enumeration order with the same lexicographic tie-breaks,
// never first-goroutine-wins.
//
// The engine is also the fault boundary of the binding stack. Every task
// runs under a recover that converts a panic into a per-task *PanicError
// with the goroutine's stack captured, so a fault in one candidate can
// never take down the pool, leak a worker goroutine, or poison the
// lookup table (a batch's records are kept only after every one of its
// tasks succeeded). Transient task failures are retried with capped
// exponential backoff, and cancellation is observed between tasks: a
// cancelled batch drains in microseconds because every undispatched task
// short-circuits to the context's cause.

// Hook points of the evaluation engine, fired through Options.Hook when
// it is set. They exist for deterministic fault injection (see
// internal/faultinject): a test hook may sleep, cancel a context, or
// panic at any of these seams, and the engine must still either finish
// cleanly, degrade to the best solution found, or return a descriptive
// error — never crash, leak a goroutine, or corrupt the lookup table.
const (
	// HookPoolTask fires at the start of every worker-pool task attempt
	// — once per attempt, so a retried task fires it again.
	HookPoolTask = "bind.pool.task"
	// HookSweepConfig fires once per B-INIT driver configuration
	// (one (L_PR, direction) greedy pass).
	HookSweepConfig = "bind.sweep.config"
	// HookIterRound fires at the top of every B-ITER perturbation round.
	HookIterRound = "bind.biter.round"
	// HookEvaluate fires at the entry of every evaluation of a distinct
	// binding in a batch.
	HookEvaluate = "bind.engine.evaluate"
	// HookCompute fires inside a cache miss, immediately before the
	// virtual schedule runs — a panic here models an evaluator fault.
	HookCompute = "bind.engine.compute"
	// HookCacheLookup fires before the lookup in the previous batch's
	// records.
	HookCacheLookup = "bind.cache.lookup"
	// HookCacheInsert fires after a successful computation, before it is
	// counted and its record kept for the next batch.
	HookCacheInsert = "bind.cache.insert"
)

// PanicError is a panic recovered from an evaluation task, converted
// into an ordinary per-task error: the recovered value plus the stack of
// the panicking goroutine, captured at the recovery site. The engine
// treats panics as transient (a fault injector or a data race may well
// not repeat) and retries them with backoff; a PanicError that reaches a
// caller means the retries were exhausted.
type PanicError struct {
	// Value is the value the task panicked with.
	Value any
	// Stack is the formatted stack trace of the panicking goroutine.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("bind: evaluation task panicked: %v", e.Value)
}

// Transient reports whether err is worth retrying: recovered panics are,
// and so is any error that exposes Transient() bool reporting true (the
// convention fault injectors and future remote evaluators can use). The
// engine retries such task failures itself; the daemon re-runs a whole
// bind that still fails with one.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return true
	}
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// canceled reports whether err stems from ctx being cancelled — either
// the standard context errors or the custom cause installed with
// context.WithCancelCause.
func canceled(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	if cause := context.Cause(ctx); cause != nil && errors.Is(err, cause) {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// CacheStats accumulates hit/miss counters of the engine's evaluations
// across a binding run. Hand one to Options.Stats to observe them; all
// methods are safe for concurrent use. A hit is a binding answered from
// the records of the batch scored just before (the previous B-ITER
// round, or the sweep for a seed's first round); a miss is one that was
// list-scheduled. Repeats within one batch are scored once and counted
// once. The counters are the same at every Options.Parallelism.
type CacheStats struct {
	hits, misses, retries atomic.Int64

	// Cross-request result-store verdicts, moved by the facade (package
	// vliwbind), which owns store lookup and audit-on-read. They live on
	// CacheStats so one Options.Stats value accounts for every cache
	// layer of a run.
	storeHits, storeMisses, storeEvicts atomic.Int64
}

// Hits returns how many evaluations were answered from the previous
// batch's records without rescheduling.
func (s *CacheStats) Hits() int64 { return s.hits.Load() }

// Misses returns how many evaluations had to synthesize moves and run
// the list scheduler. A retried task counts a single miss when it
// finally succeeds, never one per attempt.
func (s *CacheStats) Misses() int64 { return s.misses.Load() }

// Retries returns how many transient task failures (recovered panics)
// the engine re-ran with backoff.
func (s *CacheStats) Retries() int64 { return s.retries.Load() }

// StoreHits returns how many requests were served from the cross-request
// result store (each carrying a fresh audit certificate).
func (s *CacheStats) StoreHits() int64 { return s.storeHits.Load() }

// StoreMisses returns how many requests consulted the result store and
// fell through to a full search.
func (s *CacheStats) StoreMisses() int64 { return s.storeMisses.Load() }

// StoreEvicts returns how many store hits failed adoption or audit and
// were evicted instead of served. Every evict is also counted as a miss
// (the search that follows really runs).
func (s *CacheStats) StoreEvicts() int64 { return s.storeEvicts.Load() }

// RecordStoreHit, RecordStoreMiss and RecordStoreEvict move the store
// counters. They are exported for the facade, which implements the
// store's read path in package vliwbind (audit lives above this
// package); ordinary callers only ever read the counters.
func (s *CacheStats) RecordStoreHit() { s.storeHits.Add(1) }

// RecordStoreMiss counts one store consultation that fell through to a
// search.
func (s *CacheStats) RecordStoreMiss() { s.storeMisses.Add(1) }

// RecordStoreEvict counts one store entry evicted after failing
// adoption or audit.
func (s *CacheStats) RecordStoreEvict() { s.storeEvicts.Add(1) }

// Retry policy for transient task failures: up to Options.TaskRetries
// re-runs, backing off 1ms, 2ms, 4ms… capped at 8ms, each sleep
// abandoned early if the context ends.
const (
	retryBaseDelay = time.Millisecond
	retryMaxDelay  = 8 * time.Millisecond
)

// evalRec is everything the binding algorithms consume about a candidate
// before deciding to keep it: the latency, the move count, and the full
// Q_U quality vector. It deliberately carries no bound graph and no
// Schedule — those are materialized once, for final winners only.
type evalRec struct {
	qm [2]int  // (L, N_MV): the Q_M vector — see QualityM
	qu Quality // [L, U_0, U_1, …] — see QualityU
}

func (r *evalRec) l() int { return r.qm[0] }
func (r *evalRec) m() int { return r.qm[1] }

// solution pairs a binding with its bindingKey and evaluation record as
// it flows through the driver sweep and the improvement passes. The key
// serves the batch's dedup and lookup and B-ITER's visited set, and is
// all the engine needs to evaluate a candidate: a B-ITER candidate has
// no bn until it is accepted.
type solution struct {
	bn  []int
	key string
	rec *evalRec
}

// workerPool runs batches of independent tasks on a bounded number of
// goroutines. Size 1 degenerates to a plain in-order loop on the
// caller's goroutine. Tasks are handed out by an atomic counter, so
// an uneven batch keeps every worker busy until the batch drains. Each
// task receives the index of the worker running it, which the engine
// uses to hand out per-worker scratch evaluators.
//
// run is also the pool's fault and cancellation seam: every task runs
// under guard (panics become per-task *PanicError values), and the
// context is consulted before each dispatch, so a cancelled batch fills
// its remaining error slots with the context cause instead of running.
// Workers are joined before run returns in every case — a panicking or
// cancelled batch can never leak a goroutine.
type workerPool struct {
	workers int
}

// run executes n independent tasks and returns one error slot per task
// (nil for clean completions). onPanic, when non-nil, is told which
// worker's task panicked before the panic is converted to an error —
// the engine uses it to discard that worker's possibly half-mutated
// scratch evaluator.
func (p workerPool) run(ctx context.Context, n int, task func(worker, i int) error, onPanic func(worker int)) []error {
	errs := make([]error, n)
	runOne := func(worker, i int) {
		if ctx.Err() != nil {
			errs[i] = context.Cause(ctx)
			return
		}
		errs[i] = guard(worker, onPanic, func() error { return task(worker, i) })
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			runOne(0, i)
		}
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runOne(worker, i)
			}
		}(k)
	}
	wg.Wait()
	return errs
}

// guard runs one task body, converting a panic into a *PanicError with
// the panicking goroutine's stack captured. The recover happens inside
// the worker's task loop, so the worker survives and keeps draining the
// batch.
func guard(worker int, onPanic func(worker int), f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			if onPanic != nil {
				onPanic(worker)
			}
			err = &PanicError{Value: r, Stack: buf}
		}
	}()
	return f()
}

// backoffSleep waits out one capped-exponential retry delay, returning
// early if the context ends first.
func backoffSleep(ctx context.Context, attempt int) {
	d := retryBaseDelay << (attempt - 1)
	if d > retryMaxDelay || d <= 0 {
		d = retryMaxDelay
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// engine bundles the shared Problem, the worker pool, per-worker scratch
// evaluators and the previous batch's records for one binding run. Bind
// creates a single engine and shares it across the B-INIT driver sweep,
// every improvement seed, and both the Q_U and Q_M passes of B-ITER, so
// each batch can be answered from the one scored before it.
type engine struct {
	p          *problem.Problem
	pool       workerPool
	ws         []scratch           // per-worker scratch; see scratch
	quCap      int                 // a worker's Q_U arena capacity this batch; see score
	quMax      int                 // longest Q_U of the last scored batch
	prev       map[string]*evalRec // the last fully scored batch, by bindingKey; see score
	spare      map[string]*evalRec // the next batch's table, swapped with prev
	stats      *CacheStats         // nil unless the caller asked for counters
	hook       func(point string)  // nil unless the caller injects faults
	maxRetries int                 // transient-failure retries per task
	obs        obs.Observer        // nil unless the caller observes events
	kernel     string              // graph name, stamped on every event
	phase      string              // current engine phase; written only
	// between pool batches (the WaitGroup join orders the write against
	// every worker read), so event emission never races on it
}

// newEngine builds the evaluation engine for defaulted opts. It fails
// when the datapath cannot run the graph at all (the same up-front check
// every binder used to make individually).
func newEngine(g *dfg.Graph, dp *machine.Datapath, opts Options) (*engine, error) {
	p, err := problem.New(g, dp)
	if err != nil {
		return nil, err
	}
	en := &engine{
		p:          p,
		pool:       workerPool{workers: opts.Parallelism},
		ws:         make([]scratch, opts.Parallelism),
		quMax:      p.CriticalPath() + 1,
		prev:       map[string]*evalRec{},
		spare:      map[string]*evalRec{},
		stats:      opts.Stats,
		hook:       opts.Hook,
		maxRetries: opts.TaskRetries,
		obs:        opts.Observer,
		kernel:     g.Name(),
	}
	return en, nil
}

// fire invokes the fault-injection hook at a named seam when one is
// installed. Callers inside pool tasks rely on guard to absorb a hook
// panic; callers outside the pool must wrap the call themselves (see
// fireGuarded).
func (en *engine) fire(point string) {
	if en.hook != nil {
		en.hook(point)
	}
}

// fireGuarded fires a hook outside the pool's recover, converting a
// hook panic into an error instead of letting it unwind the binder.
func (en *engine) fireGuarded(point string) error {
	if en.hook == nil {
		return nil
	}
	return guard(-1, nil, func() error { en.hook(point); return nil })
}

// emit hands one observability event to the observer, stamping the
// engine's kernel and current phase onto fields the caller left empty.
// A nil observer — the production default — costs one branch; emission
// never alters control flow, which is what keeps observed runs
// bit-identical to silent ones.
func (en *engine) emit(e obs.Event) {
	if en.obs == nil {
		return
	}
	if e.Kernel == "" {
		e.Kernel = en.kernel
	}
	if e.Phase == "" {
		e.Phase = en.phase
	}
	en.obs.Event(e)
}

// setPhase names the engine phase for subsequent events and pprof
// labels. Call only between pool batches (see the phase field).
func (en *engine) setPhase(phase string) { en.phase = phase }

// scratch is one pool worker's private state. Worker k's slot is only
// ever touched by the goroutine running worker k's tasks, and batches
// are separated by WaitGroup waits, so it is never accessed
// concurrently and needs no lock.
type scratch struct {
	ev *problem.Evaluator // created lazily, dropped after a panic
	bn []int              // the candidate being evaluated, decoded from its key
	qu []int              // Q_U arena of the batch being scored; nil until the worker's first task
}

// discardScratch drops a worker's scratch evaluator after a panic: the
// evaluator may have been mid-schedule when the stack unwound, and a
// fresh one costs far less than reasoning about its partial state.
// -1 (a fireGuarded hook outside the pool) touches nothing.
func (en *engine) discardScratch(worker int) {
	if worker >= 0 && worker < len(en.ws) {
		en.ws[worker].ev = nil
	}
}

// runBatch runs n independent tasks on the pool, then retries any
// transient failures (recovered panics, injected transient errors)
// sequentially with capped exponential backoff. Retries re-run the
// original task closure, so a retried evaluation lands in the same
// result slot; they run on worker 0's scratch after the pool has fully
// drained, which keeps the per-worker-evaluator invariant intact.
//
// Every task attempt fires HookPoolTask before its body runs (inside
// the pool's guard, so an injected panic at that seam is an ordinary
// task fault). With an observer attached, each attempt additionally
// runs under pprof labels naming the engine phase and kernel, and the
// whole batch is summarized as one pool.batch event carrying its
// aggregate dispatch delay and execute time. The dispatch delay is the
// time from batch start to each worker's first task: a task waiting
// behind earlier tasks of its own batch is the batch executing, not
// queueing, so the total stays within workers × the batch's wall time
// and an in-order batch reads about zero.
func (en *engine) runBatch(ctx context.Context, n int, task func(worker, i int) error) []error {
	attempt := task
	var queueNs, execNs atomic.Int64
	var batchStart time.Time
	if en.obs != nil {
		batchStart = time.Now()
		labels := pprof.Labels("bind_phase", en.phase, "bind_kernel", en.kernel)
		// started[w] is touched only by worker w's goroutine, and by
		// retries after the pool has drained.
		started := make([]bool, max(en.pool.workers, 1))
		attempt = func(worker, i int) error {
			en.fire(HookPoolTask)
			start := time.Now()
			if !started[worker] {
				started[worker] = true
				queueNs.Add(start.Sub(batchStart).Nanoseconds())
			}
			var err error
			pprof.Do(ctx, labels, func(context.Context) { err = task(worker, i) })
			execNs.Add(time.Since(start).Nanoseconds())
			return err
		}
	} else {
		attempt = func(worker, i int) error {
			en.fire(HookPoolTask)
			return task(worker, i)
		}
	}
	errs := en.pool.run(ctx, n, attempt, en.discardScratch)
	for i := range errs {
		for a := 1; a <= en.maxRetries && Transient(errs[i]); a++ {
			if ctx.Err() != nil {
				errs[i] = context.Cause(ctx)
				break
			}
			if en.stats != nil {
				en.stats.retries.Add(1)
			}
			en.emit(obs.Event{Type: obs.EvRetry, Err: errs[i].Error()})
			backoffSleep(ctx, a)
			i := i
			errs[i] = guard(0, en.discardScratch, func() error { return attempt(0, i) })
		}
	}
	if en.obs != nil && n > 0 {
		en.emit(obs.Event{Type: obs.EvPoolBatch, Tasks: n,
			QueueNs: queueNs.Load(), ExecNs: execNs.Load()})
	}
	return errs
}

// evaluatorFor returns worker's private scratch evaluator, creating it
// on first use.
func (en *engine) evaluatorFor(worker int) *problem.Evaluator {
	if en.ws[worker].ev == nil {
		en.ws[worker].ev = en.p.NewEvaluator()
	}
	return en.ws[worker].ev
}

// score is the engine's one evaluation path, shared by the B-INIT
// driver sweep and every B-ITER round at any Parallelism. It takes
// candidates with key set and returns the distinct ones, in
// first-occurrence order so enumeration order and every first-of-equals
// tie-break are unchanged, with rec filled in, plus one error slot per
// returned candidate. A binding the previous batch scored is answered
// from that batch's records (a hit); the rest are list-scheduled on the
// pool (misses). When every task succeeded (a failed task leaves no
// record), this batch's records become the lookup table for the next
// batch. The table is replaced only after the pool has joined, so
// workers read it without a lock; it alternates between two maps,
// cleared rather than reallocated.
//
// A batch's records live in one array, and their Q_U vectors in one
// arena per worker, sized for the worker's share of the batch at the
// previous batch's longest Q_U. A hit is copied in too, so a batch's
// records never keep an older batch's memory alive.
func (en *engine) score(ctx context.Context, cands []solution) ([]solution, []error) {
	next := en.spare
	clear(next)
	uniq := cands[:0]
	for _, c := range cands {
		if _, dup := next[c.key]; !dup {
			next[c.key] = nil
			uniq = append(uniq, c)
		}
	}
	recs := make([]evalRec, len(uniq))
	workers := min(len(en.ws), len(uniq))
	if workers > 0 {
		en.quCap = (len(uniq) + workers - 1) / workers * en.quMax
	}
	for w := range en.ws {
		en.ws[w].qu = nil // the last batch's records still point into the old arenas
	}
	errs := en.runBatch(ctx, len(uniq), func(worker, i int) error {
		if err := en.evaluate(ctx, worker, uniq[i].key, &recs[i]); err != nil {
			return err
		}
		uniq[i].rec = &recs[i]
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return uniq, errs
		}
	}
	en.quMax = 0
	for _, c := range uniq {
		next[c.key] = c.rec
		en.quMax = max(en.quMax, len(c.rec.qu))
	}
	en.prev, en.spare = next, en.prev
	return uniq, errs
}

// evaluate scores one binding of a batch into rec: from the previous
// batch's records when they hold key, by a virtual schedule of the key
// decoded into the worker's scratch otherwise. Records are shared and
// must be treated as immutable by callers. A cancelled context
// short-circuits to its cause before any work, and the miss counter
// moves only after a fully successful computation — retried tasks count
// once.
func (en *engine) evaluate(ctx context.Context, worker int, key string, rec *evalRec) error {
	en.fire(HookEvaluate)
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	ws := &en.ws[worker]
	if ws.bn == nil {
		ws.bn = make([]int, len(key))
	}
	if ws.qu == nil {
		ws.qu = make([]int, 0, en.quCap)
	}
	bn, at := decodeKey(ws.bn, key), len(ws.qu)
	verdict := "hit"
	en.fire(HookCacheLookup)
	if r, ok := en.prev[key]; ok {
		rec.qm = r.qm
		ws.qu = append(ws.qu, r.qu...)
		if en.stats != nil {
			en.stats.hits.Add(1)
		}
	} else {
		en.fire(HookCompute)
		ev := en.evaluatorFor(worker)
		e, err := ev.Evaluate(bn)
		if err != nil {
			return err
		}
		rec.qm = [2]int{e.L, e.M}
		ws.qu = ev.AppendQualityU(ws.qu)
		// The insert hook fires before the counter moves: a panic
		// injected here unwinds with the stats untouched, so the retry
		// that follows recomputes and counts exactly once.
		en.fire(HookCacheInsert)
		if en.stats != nil {
			en.stats.misses.Add(1)
		}
		verdict = "miss"
	}
	rec.qu = ws.qu[at:len(ws.qu):len(ws.qu)]
	// The eval event follows the counter move with nothing between them
	// that can fail, so a journal's per-verdict totals always equal the
	// CacheStats a caller reads after the run.
	if en.obs != nil {
		en.emit(obs.Event{Type: obs.EvEval, Key: keyHex(bn),
			L: rec.l(), M: rec.m(), QU: rec.qu, Cache: verdict})
	}
	return nil
}

// materialize builds the full Result — bound graph, bound binding and
// list schedule — for a solution the caller keeps. The schedule it
// produces is bit-identical to what the virtual evaluation promised.
func (en *engine) materialize(sol solution) (*Result, error) {
	res, err := Evaluate(en.p.Graph(), en.p.Datapath(), sol.bn)
	if err != nil {
		return nil, err
	}
	en.emitRoutePicks(res)
	return res, nil
}

// emitRoutePicks journals one route.pick event per data transfer of the
// materialized winner: endpoint clusters, hop count, and the link ids
// the route rides. Emitted only for the final schedule — candidate
// evaluations stay silent — so aggregating the journal's route.pick
// events per link reproduces the winner's link occupancy exactly.
func (en *engine) emitRoutePicks(res *Result) {
	if en.obs == nil {
		return
	}
	dp := res.Datapath
	for _, n := range res.Bound.Nodes() {
		if !n.IsMove() {
			continue
		}
		src := n.TransferFor()
		if src == nil {
			continue
		}
		from, to := res.Schedule.Cluster[src.ID()], res.Schedule.Cluster[n.ID()]
		route := dp.Route(from, to)
		if route == nil {
			route = []int{0} // degenerate same-cluster transfer: link 0, like the scheduler
		}
		en.emit(obs.Event{Type: obs.EvRoutePick, Op: n.Name(),
			Src: from, Dst: to, Hops: len(route), Links: append([]int(nil), route...)})
	}
}

// materializeDegraded materializes a solution that an expiring budget
// (or an isolated fault) cut short, tagging it with the cause. The
// solution itself is a fully valid binding — degradation is about how
// far the search got, never about the legality of what it returns.
func (en *engine) materializeDegraded(sol solution, cause error) (*Result, error) {
	res, err := en.materialize(sol)
	if err != nil {
		return nil, err
	}
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	en.emit(obs.Event{Type: obs.EvDegraded, Key: keyHex(sol.bn),
		L: sol.rec.l(), M: sol.rec.m(), Err: msg})
	res.Degraded = true
	res.Budget = cause
	return res, nil
}
