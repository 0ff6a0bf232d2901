package problem

import (
	"runtime"
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/sched"
)

// TestEvaluatorRejectsBadBindings pins the validation behavior the
// binding algorithms rely on.
func TestEvaluatorRejectsBadBindings(t *testing.T) {
	g := kernels.All()[5].Build() // EWF
	dp := machine.MustParse("[2,1|1,0]", machine.Config{})
	p := Must(g, dp)
	ev := p.NewEvaluator()

	if _, err := ev.Evaluate(make([]int, 3)); err == nil {
		t.Error("accepted a mis-sized binding")
	}
	bad := make([]int, g.NumNodes())
	bad[0] = 7
	if _, err := ev.Evaluate(bad); err == nil {
		t.Error("accepted an out-of-range cluster")
	}
	bad[0] = -1
	if _, err := ev.Evaluate(bad); err == nil {
		t.Error("accepted a negative cluster")
	}
	// Bind a multiply onto the mul-less cluster 1.
	unsupported := make([]int, g.NumNodes())
	found := false
	for _, n := range g.Nodes() {
		if n.FUType() == dfg.FUMul {
			unsupported[n.ID()] = 1
			found = true
			break
		}
	}
	if !found {
		t.Fatal("EWF has no multiplies?")
	}
	if _, err := ev.Evaluate(unsupported); err == nil {
		t.Error("accepted a multiply on a cluster without multipliers")
	}
}

// TestProblemRejectsBoundGraphs: Problems are built on original graphs;
// an already-bound graph must be refused, matching BuildBound.
func TestProblemRejectsBoundGraphs(t *testing.T) {
	g := kernels.All()[6].Build() // ARF
	dp := machine.MustParse("[1,1|1,1]", machine.Config{})
	bn := make([]int, g.NumNodes())
	for i := range bn {
		bn[i] = i % 2
	}
	bg, _, err := BuildBound(g, bn)
	if err != nil {
		t.Fatal(err)
	}
	if bg.NumMoves() == 0 {
		t.Fatal("alternating binding produced no moves")
	}
	if _, err := New(bg, dp); err == nil {
		t.Error("Problem accepted a bound graph")
	}
}

// TestProblemPrecomputedAnalysis cross-checks the constructor's derived
// analysis against the dfg package's reference implementations.
func TestProblemPrecomputedAnalysis(t *testing.T) {
	g := kernels.All()[4].Build() // FFT
	dp := machine.MustParse("[2,1|2,1]", machine.Config{Mul: machine.ResourceSpec{Lat: 2, DII: 1}})
	p := Must(g, dp)

	if got, want := p.CriticalPath(), dfg.CriticalPath(g, dp.Latency); got != want {
		t.Errorf("CriticalPath = %d, want %d", got, want)
	}
	times := dfg.Analyze(g, dp.Latency, 0)
	if p.Times().L != times.L {
		t.Errorf("Times().L = %d, want %d", p.Times().L, times.L)
	}
	// Height must match the longest latency-weighted path to a sink,
	// including the node's own latency (modulo scheduling's priority).
	want := make([]int, g.NumNodes())
	order := dfg.TopoOrder(g)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		h := dp.Latency(v.Op())
		for _, s := range v.Succs() {
			if hh := want[s.ID()] + dp.Latency(v.Op()); hh > h {
				h = hh
			}
		}
		want[v.ID()] = h
	}
	for id := range want {
		if p.Height(id) != want[id] {
			t.Errorf("Height(%d) = %d, want %d", id, p.Height(id), want[id])
		}
	}
	for _, n := range g.Nodes() {
		if p.Latency(n.ID()) != dp.Latency(n.Op()) {
			t.Errorf("Latency(%d) mismatch", n.ID())
		}
		if p.DII(n.ID()) != dp.DII(n.Op()) {
			t.Errorf("DII(%d) mismatch", n.ID())
		}
	}
	if p.NumNodes() != g.NumNodes() {
		t.Errorf("NumNodes = %d, want %d", p.NumNodes(), g.NumNodes())
	}
	if len(p.TopoOrder()) != g.NumNodes() {
		t.Errorf("TopoOrder length %d", len(p.TopoOrder()))
	}
}

// TestMaterializeAgreesWithEvaluate: the schedule a caller materializes
// for a winner must report exactly the Eval the virtual path promised.
func TestMaterializeAgreesWithEvaluate(t *testing.T) {
	g := kernels.All()[6].Build() // ARF
	dp := machine.MustParse("[2,1|1,1]", machine.Config{})
	p := Must(g, dp)
	ev := p.NewEvaluator()
	bn := make([]int, g.NumNodes())
	for i := range bn {
		bn[i] = i % 2
	}
	for _, n := range g.Nodes() {
		if !dp.Supports(bn[n.ID()], n.Op()) {
			bn[n.ID()] = dp.TargetSet(n.Op())[0]
		}
	}
	want, err := ev.Evaluate(bn)
	if err != nil {
		t.Fatal(err)
	}
	bg, bb, s, err := p.Materialize(bn)
	if err != nil {
		t.Fatal(err)
	}
	if s.L != want.L || bg.NumMoves() != want.M {
		t.Fatalf("Materialize (L=%d, M=%d) != Evaluate (L=%d, M=%d)", s.L, bg.NumMoves(), want.L, want.M)
	}
	if len(bb) != bg.NumNodes() {
		t.Fatalf("bound binding has %d entries for %d nodes", len(bb), bg.NumNodes())
	}
	if err := sched.Check(s); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateAllocatesNothing: NewEvaluator sizes every piece of
// scratch for the problem's worst case, so no Evaluate allocates — not
// the first, nor one whose schedule is longer than any before it.
func TestEvaluateAllocatesNothing(t *testing.T) {
	g := kernels.All()[0].Build()
	for _, spec := range []string{"[3,1|2,2|1,3]", "[1,1|1,1|1,1|1,1]@ring:1"} {
		dp, err := machine.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		ev := Must(g, dp).NewEvaluator()
		// Everything on one cluster first (short, move-free), then ever
		// more scattered bindings with more moves and longer schedules.
		bns := make([][]int, dp.NumClusters())
		for r := range bns {
			bns[r] = make([]int, g.NumNodes())
			for _, n := range g.Nodes() {
				ts := dp.TargetSet(n.Op())
				bns[r][n.ID()] = ts[(n.ID()*r)%len(ts)]
			}
		}
		starts := make([]int, 0, 4*g.NumNodes())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, bn := range bns {
			if _, err := ev.Evaluate(bn); err != nil {
				t.Fatal(err)
			}
			starts = ev.AppendStarts(starts[:0])
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: %d allocations over %d evaluations on a fresh evaluator", spec, n, len(bns))
		}
	}
}
