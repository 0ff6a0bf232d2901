// External test package: the differential harness holds the
// allocation-free problem.Evaluator to the frozen sort-based oracle
// (schedtest) and to the materialized bind.Evaluate path, so it needs
// all three as a client.
package bind_test

import (
	"testing"

	"vliwbind/internal/bind"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/problem"
	"vliwbind/internal/sched/schedtest"
)

var evalFuzzDatapaths = []string{
	"[1,1|1,1]",
	"[2,1|1,1]",
	"[2,2|1,1|2,1]",
	"[1,1|1,1|1,1]@ring:1",
	"[2,1|1,1]@p2p",
	"[1,1|1,1|1,1|1,1]@ring:1", // multi-hop moves
}

// fuzzBinding derives a binding of g's ops from seed with a
// splitmix-style generator, so every node's cluster varies
// independently of graph shape.
func fuzzBinding(n, clusters int, seed uint64) []int {
	binding := make([]int, n)
	x := seed
	for i := range binding {
		x = x*6364136223846793005 + 1442695040888963407
		binding[i] = int(x>>33) % clusters
	}
	return binding
}

// checkAgainstMaterialized asserts that ev's last evaluation, e, agrees
// with bind.Evaluate on binding: (L, M), the Q_U vector and every bound
// node's start cycle.
func checkAgainstMaterialized(t *testing.T, ev *problem.Evaluator, e problem.Eval, res *bind.Result) {
	t.Helper()
	if e.L != res.L() || e.M != res.Moves() {
		t.Fatalf("figures of merit diverge: evaluator (%d,%d), materialized (%d,%d)",
			e.L, e.M, res.L(), res.Moves())
	}
	got := ev.AppendQualityU(nil)
	want := []int(bind.QualityU(res.Schedule))
	if len(got) != len(want) {
		t.Fatalf("Q_U length diverges: %v vs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Q_U[%d] diverges: %v vs %v", i, got, want)
		}
	}
	starts := ev.AppendStarts(nil)
	if len(starts) != len(res.Schedule.Start) {
		t.Fatalf("start-vector length diverges: %d vs %d", len(starts), len(res.Schedule.Start))
	}
	for i := range starts {
		if starts[i] != res.Schedule.Start[i] {
			t.Fatalf("start[%d] diverges: %d vs %d", i, starts[i], res.Schedule.Start[i])
		}
	}
}

// FuzzEvaluatorDifferential checks the scheduling core against the
// oracle for any binding of any graph: the Evaluator's (L, M), Q_U
// vector and start cycles, and sched.List's whole schedule, must equal
// the sort-based ListSortRef's on the materialized bound graph, and the
// Evaluator must agree with bind.Evaluate.
func FuzzEvaluatorDifferential(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), uint64(0))
	f.Add(int64(7), uint8(20), uint8(1), uint64(9876))
	f.Add(int64(42), uint8(30), uint8(2), uint64(31415926))
	f.Add(int64(11), uint8(18), uint8(3), uint64(271828))    // 3-cluster ring
	f.Add(int64(13), uint8(22), uint8(4), uint64(1618033))   // point-to-point
	f.Add(int64(17), uint8(26), uint8(5), uint64(141421356)) // 4-cluster ring, multi-hop moves
	f.Fuzz(func(t *testing.T, seed int64, ops, dpSel uint8, bindSeed uint64) {
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
		if err := schedtest.CheckEvaluator(ev, binding); err != nil {
			t.Fatal(err)
		}
		e, verr := ev.Evaluate(binding)
		res, merr := bind.Evaluate(g, dp, binding)
		if (verr != nil) != (merr != nil) {
			t.Fatalf("error disagreement: evaluator=%v, materialized=%v", verr, merr)
		}
		if verr != nil {
			return // rejected by every path
		}
		checkAgainstMaterialized(t, ev, e, res)
	})
}
