package bind_test

import (
	"testing"

	"vliwbind/internal/bind"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/problem"
	"vliwbind/internal/sched/schedtest"
)

// FuzzDeltaEvaluatorDifferential drives one Evaluator the way B-ITER
// does — an incumbent plus a walk of one- or two-op boundary deltas —
// and holds every step to the frozen sort-based oracle: the delta's
// cost, Q_U vector and start cycles must be what a full schedule from
// scratch gives, whatever scratch the previous candidate left behind.
// Improving or equal deltas are accepted as the new incumbent, and the
// walk's winner is materialized with bind.Evaluate to pin the whole
// stack end to end. (An incremental replay engine once served these
// deltas; it is deleted, and the harness keeps its seeds and corpus.)
func FuzzDeltaEvaluatorDifferential(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), uint64(0), uint64(1))
	f.Add(int64(7), uint8(20), uint8(1), uint64(9876), uint64(2718281828))
	f.Add(int64(42), uint8(30), uint8(2), uint64(31415926), uint64(16180339887))
	f.Add(int64(11), uint8(18), uint8(3), uint64(271828), uint64(777))  // 3-cluster ring
	f.Add(int64(13), uint8(22), uint8(4), uint64(1618033), uint64(999)) // point-to-point
	f.Fuzz(func(t *testing.T, seed int64, ops, dpSel uint8, bindSeed, moveSeed uint64) {
		g := kernels.Random(kernels.RandomConfig{Ops: 4 + int(ops)%29, Seed: seed})
		spec := evalFuzzDatapaths[int(dpSel)%len(evalFuzzDatapaths)]
		dp, err := machine.Parse(spec, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		binding := fuzzBinding(g.NumOps(), dp.NumClusters(), bindSeed)
		p, err := problem.New(g, dp)
		if err != nil {
			t.Fatal(err)
		}
		ev := p.NewEvaluator()
		inc, err := ev.Evaluate(binding)
		if err != nil {
			t.Skip("incumbent rejected; no walk to take from it")
		}

		cand := make([]int, len(binding))
		x := moveSeed
		for step := 0; step < 24; step++ {
			copy(cand, binding)
			// One or two boundary re-bindings, like a B-ITER move.
			x = x*6364136223846793005 + 1442695040888963407
			n := 1 + int(x>>33)%2
			for j := 0; j < n; j++ {
				x = x*6364136223846793005 + 1442695040888963407
				op := int(x>>33) % len(cand)
				x = x*6364136223846793005 + 1442695040888963407
				cand[op] = int(x>>33) % dp.NumClusters()
			}
			if err := schedtest.CheckEvaluator(ev, cand); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			e, err := ev.Evaluate(cand)
			if err != nil {
				continue // rejected by the oracle too
			}
			if e.L <= inc.L {
				copy(binding, cand)
				inc = e
			}
		}

		// The walk's winner must materialize to the same figures of
		// merit through the real bound-graph scheduler.
		res, err := bind.Evaluate(g, dp, binding)
		if err != nil {
			t.Fatalf("winner binding rejected by materialization: %v", err)
		}
		if res.L() != inc.L || res.Moves() != inc.M {
			t.Fatalf("winner materializes to (%d,%d), the walk holds (%d,%d)",
				res.L(), res.Moves(), inc.L, inc.M)
		}
	})
}
