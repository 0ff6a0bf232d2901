package bind_test

// Determinism tests for the parallel evaluation engine: the engine's
// contract is that Options.Parallelism changes only wall-clock time,
// never results. These tests compare full Bind runs at Parallelism 1
// (one in-order worker) against Parallelism 8 (an eight-worker pool) and
// require identical latency, move count, AND identical binding vectors —
// not just equal quality. The package's `make race` target runs them
// under the race detector, which exercises the pool's synchronization.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"vliwbind/internal/bind"
	"vliwbind/internal/kernels"
	"vliwbind/internal/leakcheck"
	"vliwbind/internal/machine"
	"vliwbind/internal/obs"
)

// sampleDatapaths are the machines every kernel is cross-checked on: the
// paper's standard two-cluster machine and a heterogeneous three-cluster
// one that forces move-heavy bindings.
var sampleDatapaths = []string{"[2,1|2,1]", "[2,1|1,1|1,1]"}

func bindAt(t *testing.T, g *kernels.Kernel, dpSpec string, par int, stats *bind.CacheStats) *bind.Result {
	t.Helper()
	dp, err := machine.Parse(dpSpec, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := bind.Options{Parallelism: par, Stats: stats}
	if g.NumOps > 50 {
		// The big DCT kernels take seconds per Bind; a bounded number of
		// improvement rounds keeps the full matrix race-detector-friendly
		// while still exercising the sweep, both passes, and the cache.
		opts.MaxIterations = 4
	}
	res, err := bind.Bind(g.Build(), dp, opts)
	if err != nil {
		t.Fatalf("%s on %s (par=%d): %v", g.Name, dpSpec, par, err)
	}
	return res
}

func TestParallelismIsInvisible(t *testing.T) {
	// Registered on the parent: its cleanup runs after every parallel
	// subtest has finished, when all pool workers must have joined.
	leakcheck.Check(t)
	for _, k := range kernels.All() {
		k := k
		for _, dpSpec := range sampleDatapaths {
			dpSpec := dpSpec
			t.Run(fmt.Sprintf("%s/%s", k.Name, dpSpec), func(t *testing.T) {
				t.Parallel()
				seq := bindAt(t, &k, dpSpec, 1, nil)
				var stats bind.CacheStats
				par := bindAt(t, &k, dpSpec, 8, &stats)
				if seq.L() != par.L() || seq.Moves() != par.Moves() {
					t.Fatalf("par=8 diverged: (L=%d, M=%d) vs sequential (L=%d, M=%d)",
						par.L(), par.Moves(), seq.L(), seq.Moves())
				}
				for i := range seq.Binding {
					if seq.Binding[i] != par.Binding[i] {
						t.Fatalf("binding vectors diverge at node %d: %d vs %d",
							i, par.Binding[i], seq.Binding[i])
					}
				}
				if stats.Misses() == 0 {
					t.Error("parallel run recorded no cache misses; is the engine engaged?")
				}
			})
		}
	}
}

// TestCacheCountsHits pins down that the previous batch's records
// actually answer repeat candidates: a full two-phase Bind revisits
// perturbations across consecutive rounds and across the Q_U→Q_M
// passes, so the engine must record hits as well as misses.
func TestCacheCountsHits(t *testing.T) {
	leakcheck.Check(t)
	k, err := kernels.ByName("ARF")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	dp, err := machine.Parse("[2,1|2,1]", machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var stats bind.CacheStats
	if _, err := bind.Bind(g, dp, bind.Options{Parallelism: 4, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Misses() == 0 {
		t.Fatal("no misses recorded: cache counters not wired up")
	}
	if stats.Hits() == 0 {
		t.Error("no hits recorded: B-ITER is known to revisit candidates, cache never matched")
	}
	t.Logf("cache: %d misses, %d hits", stats.Misses(), stats.Hits())
}

// TestNoBindingEvaluatedTwicePerRound binds a kernel whose boundary
// pairs are linked by several paths (an edge and a shared consumer) and
// requires every round to evaluate each distinct binding at most once,
// at any Parallelism. It also requires that each round enumerates every
// binding once, so its iter.round candidates equal its eval events, and
// that some candidates are answered from the previous batch's records.
func TestNoBindingEvaluatedTwicePerRound(t *testing.T) {
	k, err := kernels.ByName("ARF")
	if err != nil {
		t.Fatal(err)
	}
	dp, err := machine.Parse("[2,1|2,1]", machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		var rounds, candidates, evals, hits int
		var inRound map[string]bool // nil until the first B-ITER round
		closeRound := func() {
			if inRound != nil && candidates != evals {
				t.Errorf("par %d: B-ITER round %d enumerated %d candidates and evaluated %d; want each binding enumerated once",
					par, rounds, candidates, evals)
			}
		}
		observer := obs.Func(func(e obs.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch e.Type {
			case obs.EvIterRound:
				closeRound()
				rounds++
				candidates, evals = e.Candidates, 0
				inRound = map[string]bool{}
			case obs.EvEval:
				if e.Cache == "hit" {
					hits++
				}
				if inRound == nil {
					return // the B-INIT sweep's batch
				}
				evals++
				if inRound[e.Key] {
					t.Errorf("par %d: B-ITER round %d evaluated binding %s twice", par, rounds, e.Key)
				}
				inRound[e.Key] = true
			}
		})
		if _, err := bind.Bind(k.Build(), dp, bind.Options{Parallelism: par, Observer: observer}); err != nil {
			t.Fatal(err)
		}
		closeRound()
		if hits == 0 {
			t.Errorf("par %d: no evaluation was answered from the previous batch", par)
		}
	}
}

// TestPoolQueueIsDispatchDelay: the pool.queue phase sums each worker's
// wait from batch start to its first task, not every task's wait behind
// earlier tasks of its own batch. The total therefore stays within
// workers × the bind's wall time, and the in-order loop of Parallelism
// 1 reads about zero.
func TestPoolQueueIsDispatchDelay(t *testing.T) {
	k, err := kernels.ByName("EWF")
	if err != nil {
		t.Fatal(err)
	}
	dp := machine.MustParse("[2,1|2,1]", machine.Config{NumBuses: 2, MoveLat: 1})
	for _, par := range []int{1, 2} {
		m := obs.NewMetrics()
		t0 := time.Now()
		if _, err := bind.Bind(k.Build(), dp, bind.Options{Parallelism: par, Observer: m}); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(t0)
		var queue, exec time.Duration
		batches := int64(0)
		for name, ps := range m.Snapshot().Phases {
			switch {
			case strings.HasPrefix(name, "pool.queue["):
				queue += time.Duration(ps.TotalNs)
				batches += ps.Count
			case strings.HasPrefix(name, "pool.exec["):
				exec += time.Duration(ps.TotalNs)
			}
		}
		if batches == 0 || exec == 0 {
			t.Fatalf("par %d: no pool batches observed", par)
		}
		if queue > time.Duration(par)*wall {
			t.Errorf("par %d: pool queue %v exceeds %d worker(s) × wall %v", par, queue, par, wall)
		}
		if par == 1 && queue > wall/10 {
			t.Errorf("par 1: in-order loop reports %v of queueing in a %v bind", queue, wall)
		}
		t.Logf("par %d: %d batches, queue %v, exec %v, wall %v", par, batches, queue, exec, wall)
	}
}
