package bind

// White-box regression tests pinning the exact CacheStats accounting
// under Options.TaskRetries: a retry that heals counts its miss exactly
// once, and a retried compute fault never manufactures a phantom hit.
// The engine is driven directly, one single-task batch at a time, so
// each evaluation's record becomes the previous batch the next one looks
// up, and every counter value is fully deterministic. The black-box Bind-level
// counterparts (cancel_test.go) assert the same invariants relationally;
// these tests pin the absolute numbers.

import (
	"context"
	"testing"

	"vliwbind/internal/faultinject"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
)

// statsHarness builds an engine over the EWF kernel with a two-worker
// pool, a two-retry budget, and the given injector at the hook seam,
// plus two distinct valid bindings to evaluate.
func statsHarness(t *testing.T, inj *faultinject.Injector, stats *CacheStats) (*engine, []int, []int) {
	t.Helper()
	k, err := kernels.ByName("EWF")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	mdp := machine.MustParse("[1,1|1,1]", machine.Config{})
	opts, err := (Options{Parallelism: 2, TaskRetries: 2, Stats: stats, Hook: inj.At}).prepare()
	if err != nil {
		t.Fatal(err)
	}
	en, err := newEngine(g, mdp, opts)
	if err != nil {
		t.Fatal(err)
	}
	bnA, err := InitialOnce(g, mdp, 10, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A second, distinct binding: flip one op between the two clusters
	// (both have an ALU and a MUL, so any flip stays legal).
	bnB := append([]int(nil), bnA...)
	bnB[len(bnB)-1] ^= 1
	return en, bnA, bnB
}

// evalOne pushes one evaluation through the engine as a single-task
// batch, exercising the same score + pool + retry path Bind uses; on
// success its record is what the next evalOne looks up.
func evalOne(t *testing.T, en *engine, bn []int) {
	t.Helper()
	_, errs := en.score(context.Background(), []solution{{bn: bn, key: bindingKey(bn)}})
	if errs[0] != nil {
		t.Fatalf("evaluation failed: %v", errs[0])
	}
}

// TestExactCountsOnHealedInsertRetry panics exactly at the first
// cache-insert seam: the retry recomputes and must count one miss total,
// and the exact counter triple — and the exact number of hook firings —
// is pinned.
func TestExactCountsOnHealedInsertRetry(t *testing.T) {
	var stats CacheStats
	inj := faultinject.New(faultinject.Fault{Point: HookCacheInsert, Hit: 1, Kind: faultinject.Panic})
	en, bnA, bnB := statsHarness(t, inj, &stats)

	evalOne(t, en, bnA) // miss; insert panics; retry recomputes: 1 miss, 1 retry
	evalOne(t, en, bnA) // answered from the previous batch: 1 hit
	evalOne(t, en, bnB) // fresh key: 1 more miss

	if h, m, r := stats.Hits(), stats.Misses(), stats.Retries(); h != 1 || m != 2 || r != 1 {
		t.Errorf("stats = (hits=%d, misses=%d, retries=%d), want exactly (1, 2, 1)", h, m, r)
	}
	// 3 scheduled tasks + 1 retry attempt = 4 pool-task firings and 4
	// evaluation entries (the retried task re-enters evaluate in full).
	if got := inj.Count(HookPoolTask); got != 4 {
		t.Errorf("HookPoolTask fired %d times, want 4 (3 tasks + 1 retry attempt)", got)
	}
	if got := inj.Count(HookEvaluate); got != 4 {
		t.Errorf("HookEvaluate fired %d times, want 4", got)
	}
	// Insert seam: panicked once, succeeded twice (bnA's retry, bnB).
	if got := inj.Count(HookCacheInsert); got != 3 {
		t.Errorf("HookCacheInsert fired %d times, want 3", got)
	}
}

// TestNoPhantomHitOnRetriedCompute panics at the first compute: no
// batch has been kept yet, so the retry's second lookup must miss again
// — the hit counter has to stay at zero until a later evaluation
// genuinely hits.
func TestNoPhantomHitOnRetriedCompute(t *testing.T) {
	var stats CacheStats
	inj := faultinject.New(faultinject.Fault{Point: HookCompute, Hit: 1, Kind: faultinject.Panic})
	en, bnA, _ := statsHarness(t, inj, &stats)

	evalOne(t, en, bnA) // compute panics; retry recomputes: 1 miss, 1 retry
	if h := stats.Hits(); h != 0 {
		t.Fatalf("retried compute fault produced %d phantom hit(s)", h)
	}
	evalOne(t, en, bnA) // the first genuine hit

	if h, m, r := stats.Hits(), stats.Misses(), stats.Retries(); h != 1 || m != 1 || r != 1 {
		t.Errorf("stats = (hits=%d, misses=%d, retries=%d), want exactly (1, 1, 1)", h, m, r)
	}
	// Lookup seam: initial attempt, its retry, then the hit.
	if got := inj.Count(HookCacheLookup); got != 3 {
		t.Errorf("HookCacheLookup fired %d times, want 3", got)
	}
}

// TestTransientNilAllocatesNothing pins the fast path runBatch takes for
// every clean task: classifying a nil error must not allocate the
// errors.As targets.
func TestTransientNilAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = Transient(nil) }); n != 0 {
		t.Errorf("Transient(nil) allocates %v objects per call, want 0", n)
	}
}
