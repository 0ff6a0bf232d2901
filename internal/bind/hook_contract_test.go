package bind

// Contract tests for the engine's named hook points: the documented
// firing order within one evaluation, and exactly-once semantics per
// seam across a full Bind run at Parallelism 1 (one in-order worker) and
// Parallelism 4 (a four-worker pool). Both run the same evaluation path,
// so every seam — configurations swept, B-ITER rounds, evaluations,
// pool tasks, lookups, computes, inserts — and both CacheStats counters
// must be identical at the two settings and reconcile exactly.

import (
	"sync"
	"testing"

	"vliwbind/internal/faultinject"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
)

// TestHookFiringOrderPerEvaluation pins the documented order of seams
// inside a single pool task: task → evaluate → cache lookup → compute →
// cache insert on a miss; the same prefix, stopping at the lookup, on a
// hit. Single-task batches keep the global sequence unambiguous.
func TestHookFiringOrderPerEvaluation(t *testing.T) {
	var mu sync.Mutex
	var seq []string
	hook := func(point string) {
		mu.Lock()
		seq = append(seq, point)
		mu.Unlock()
	}
	take := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := seq
		seq = nil
		return out
	}

	k, err := kernels.ByName("EWF")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	mdp := machine.MustParse("[1,1|1,1]", machine.Config{})
	opts, err := (Options{Parallelism: 2, Hook: hook}).prepare()
	if err != nil {
		t.Fatal(err)
	}
	en, err := newEngine(g, mdp, opts)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := InitialOnce(g, mdp, 10, false, Options{})
	if err != nil {
		t.Fatal(err)
	}

	evalOne(t, en, bn)
	wantMiss := []string{HookPoolTask, HookEvaluate, HookCacheLookup, HookCompute, HookCacheInsert}
	if got := take(); !equalSeq(got, wantMiss) {
		t.Errorf("miss sequence = %v, want %v", got, wantMiss)
	}

	evalOne(t, en, bn)
	wantHit := []string{HookPoolTask, HookEvaluate, HookCacheLookup}
	if got := take(); !equalSeq(got, wantHit) {
		t.Errorf("hit sequence = %v, want %v", got, wantHit)
	}
}

func equalSeq(a, b []string) bool {
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

// TestHookCountsAcrossParallelism runs the full two-phase binder at
// Parallelism 1 and 4 with a pure counting injector and requires (a)
// identical results, (b) identical counts at every seam and in both
// CacheStats counters, (c) at each setting, one hit or miss per
// evaluation and one insert per miss, and (d) zero retries on a clean
// run — i.e. HookPoolTask fired exactly once per dispatched task.
func TestHookCountsAcrossParallelism(t *testing.T) {
	k, err := kernels.ByName("ARF")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	mdp := machine.MustParse("[2,1|2,1]", machine.Config{})

	run := func(par int) (*faultinject.Injector, *CacheStats, *Result) {
		inj := faultinject.New() // no faults: pure hit counter
		var stats CacheStats
		res, err := Bind(g, mdp, Options{Parallelism: par, Hook: inj.At, Stats: &stats})
		if err != nil {
			t.Fatalf("Parallelism %d: %v", par, err)
		}
		return inj, &stats, res
	}
	inj1, stats1, res1 := run(1)
	inj4, stats4, res4 := run(4)

	if res1.L() != res4.L() || res1.Moves() != res4.Moves() {
		t.Fatalf("results diverge: par1 (L=%d,M=%d) vs par4 (L=%d,M=%d)",
			res1.L(), res1.Moves(), res4.L(), res4.Moves())
	}

	// Both settings run one evaluation path, so every seam fires
	// identically often and the counters agree.
	for _, point := range []string{HookSweepConfig, HookIterRound, HookEvaluate, HookPoolTask,
		HookCacheLookup, HookCompute, HookCacheInsert} {
		c1, c4 := inj1.Count(point), inj4.Count(point)
		if c1 == 0 {
			t.Errorf("%s never fired", point)
		}
		if c1 != c4 {
			t.Errorf("%s fired %d times at par 1 but %d at par 4", point, c1, c4)
		}
	}
	if stats1.Hits() != stats4.Hits() || stats1.Misses() != stats4.Misses() {
		t.Errorf("counters diverge: par1 (hits=%d, misses=%d) vs par4 (hits=%d, misses=%d)",
			stats1.Hits(), stats1.Misses(), stats4.Hits(), stats4.Misses())
	}

	// At each setting: one lookup per evaluation, one insert per counted
	// miss, and every evaluation resolves to exactly one hit or miss.
	for _, r := range []struct {
		par   int
		inj   *faultinject.Injector
		stats *CacheStats
	}{{1, inj1, stats1}, {4, inj4, stats4}} {
		if ev, lk := r.inj.Count(HookEvaluate), r.inj.Count(HookCacheLookup); ev != lk {
			t.Errorf("par %d: %d evaluations but %d cache lookups, want equal", r.par, ev, lk)
		}
		if got, want := r.stats.Hits()+r.stats.Misses(), r.inj.Count(HookEvaluate); got != want {
			t.Errorf("par %d: hits+misses = %d, want %d (one verdict per evaluation)", r.par, got, want)
		}
		if got, want := r.inj.Count(HookCacheInsert), r.stats.Misses(); got != want {
			t.Errorf("par %d: %d insert firings, want %d (one per counted miss)", r.par, got, want)
		}
	}

	// Exactly-once per task attempt: a fault-free run retries nothing.
	if stats1.Retries() != 0 || stats4.Retries() != 0 {
		t.Errorf("clean runs recorded retries: par1=%d par4=%d", stats1.Retries(), stats4.Retries())
	}
}
