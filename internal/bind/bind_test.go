package bind

import (
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/problem"
	"vliwbind/internal/sched"
)

func dp2x11(t *testing.T) *machine.Datapath {
	t.Helper()
	return machine.MustParse("[1,1|1,1]", machine.Config{})
}

// TestBoundDFGFigure1 reproduces the scenario of the paper's Figure 1:
// binding a producer and consumer to different clusters inserts a transfer
// t1 between them, changing the DFG structure.
func TestBoundDFGFigure1(t *testing.T) {
	b := dfg.NewBuilder("fig1")
	x, y := b.Input("x"), b.Input("y")
	v1 := b.Named("v1", dfg.OpAdd, 0, x, y)
	v2 := b.Named("v2", dfg.OpAdd, 0, v1, y)
	v3 := b.Named("v3", dfg.OpAdd, 0, v2, x)
	v4 := b.Named("v4", dfg.OpAdd, 0, v3, v1)
	b.Output(v4)
	g := b.Graph()

	// v1, v2 on cluster 0; v3, v4 on cluster 1: cross edges v2->v3 and
	// v1->v4 each need a move into cluster 1.
	bg, bb, err := problem.BuildBound(g, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dfg.Validate(bg); err != nil {
		t.Fatalf("bound graph invalid: %v", err)
	}
	if bg.NumMoves() != 2 {
		t.Fatalf("bound graph has %d moves, want 2", bg.NumMoves())
	}
	if bg.NumOps() != 4 {
		t.Errorf("bound graph has %d regular ops, want 4", bg.NumOps())
	}
	t1 := bg.NodeByName("t1")
	if t1 == nil || !t1.IsMove() {
		t.Fatal("move t1 missing from bound graph")
	}
	if t1.TransferFor() == nil {
		t.Error("move t1 lost its producer metadata")
	}
	// Moves land in the consumer's cluster.
	for _, n := range bg.Nodes() {
		if n.IsMove() && bb[n.ID()] != 1 {
			t.Errorf("move %s bound to cluster %d, want 1", n.Name(), bb[n.ID()])
		}
	}
	// Bound graph computes the same function.
	want, err := dfg.EvalOutputs(g, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dfg.EvalOutputs(bg, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("bound graph computes %v, want %v", got, want)
	}
}

func TestBuildBoundDedupsPerCluster(t *testing.T) {
	// One producer feeding two consumers in the same foreign cluster:
	// exactly one move.
	b := dfg.NewBuilder("dedup")
	x, y := b.Input("x"), b.Input("y")
	p := b.Named("p", dfg.OpAdd, 0, x, y)
	c1 := b.Named("c1", dfg.OpAdd, 0, p, y)
	c2 := b.Named("c2", dfg.OpSub, 0, p, y)
	b.Output(c1)
	b.Output(c2)
	g := b.Graph()
	bg, _, err := problem.BuildBound(g, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if bg.NumMoves() != 1 {
		t.Errorf("moves = %d, want 1 (same destination cluster)", bg.NumMoves())
	}
	// Two different foreign clusters: two moves.
	dp3 := machine.MustParse("[1,1|1,1|1,1]", machine.Config{})
	_ = dp3
	bg2, _, err := problem.BuildBound(g, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if bg2.NumMoves() != 2 {
		t.Errorf("moves = %d, want 2 (distinct destinations)", bg2.NumMoves())
	}
}

func TestBuildBoundNoMovesSameCluster(t *testing.T) {
	b := dfg.NewBuilder("same")
	x := b.Input("x")
	v := b.Neg(x)
	w := b.Neg(v)
	b.Output(w)
	g := b.Graph()
	bg, bb, err := problem.BuildBound(g, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if bg.NumMoves() != 0 {
		t.Errorf("moves = %d, want 0", bg.NumMoves())
	}
	for _, c := range bb {
		if c != 1 {
			t.Errorf("binding changed: %v", bb)
		}
	}
}

func TestBuildBoundErrors(t *testing.T) {
	b := dfg.NewBuilder("e")
	x := b.Input("x")
	v := b.Neg(x)
	m := b.Move(v)
	b.Output(b.Neg(m))
	g := b.Graph()
	if _, _, err := problem.BuildBound(g, []int{0, 0, 0}); err == nil {
		t.Error("BuildBound accepted an already-bound graph")
	}
	b2 := dfg.NewBuilder("e2")
	x2 := b2.Input("x")
	b2.Output(b2.Neg(x2))
	g2 := b2.Graph()
	if _, _, err := problem.BuildBound(g2, []int{0, 0}); err == nil {
		t.Error("BuildBound accepted a mis-sized binding")
	}
}

func TestBuildBoundMoveNameCollision(t *testing.T) {
	// A kernel that already uses the name "t1" must not collide with
	// inserted transfer names.
	b := dfg.NewBuilder("coll")
	x, y := b.Input("x"), b.Input("y")
	p := b.Named("t1", dfg.OpAdd, 0, x, y)
	c := b.Named("c", dfg.OpAdd, 0, p, y)
	b.Output(c)
	g := b.Graph()
	bg, _, err := problem.BuildBound(g, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dfg.Validate(bg); err != nil {
		t.Fatalf("bound graph invalid: %v", err)
	}
	if bg.NumMoves() != 1 {
		t.Errorf("moves = %d, want 1", bg.NumMoves())
	}
}

// TestOrderingRules checks the three-component ranking of Section 3.1.1.
// (The paper's Figure 2 DFG is only drawn, not listed; the rules it
// illustrates are asserted directly.)
func TestOrderingRules(t *testing.T) {
	// Build a graph exposing all three rules at L_CP = 3:
	//   a -> c -> e   (critical chain, alap 0,1,2; mobility 0)
	//   b             (alap 0 via long fan-out? no: see below)
	//   d             (alap 1, mobility 1)
	//   f             (alap 2, mobility 2)
	b := dfg.NewBuilder("order")
	x, y := b.Input("x"), b.Input("y")
	a := b.Named("a", dfg.OpAdd, 0, x, y)
	c := b.Named("c", dfg.OpAdd, 0, a, y)
	e := b.Named("e", dfg.OpAdd, 0, c, y)
	// d joins the chain at the last step: asap 0, alap 1 -> mobility 1.
	d := b.Named("d", dfg.OpAdd, 0, x, x)
	e2 := b.Named("e2", dfg.OpAdd, 0, d, c)
	// f is free-floating: asap 0, alap 2 -> mobility 2.
	f := b.Named("f", dfg.OpAdd, 0, y, y)
	b.Output(e)
	b.Output(e2)
	b.Output(f)
	g := b.Graph()
	dp := dp2x11(t)
	times := dfg.Analyze(g, dp.Latency, 0)
	order := orderNodes(g, times, dp.Latency, false)
	pos := make(map[string]int)
	for i, n := range order {
		pos[n.Name()] = i
	}
	// Primary: alap ascending. a (alap 0) before c,d (alap 1) before
	// e,e2,f (alap 2).
	if !(pos["a"] < pos["c"] && pos["c"] < pos["e"]) {
		t.Errorf("alap ordering violated: %v", pos)
	}
	// Secondary: at alap 1, c (mobility 0) before d (mobility 1).
	if !(pos["c"] < pos["d"]) {
		t.Errorf("mobility ordering violated: c=%d d=%d", pos["c"], pos["d"])
	}
	// Tertiary: at alap 2 and equal mobility 0, e and e2 tie; f has
	// mobility 2 and comes after both.
	if !(pos["e"] < pos["f"] && pos["e2"] < pos["f"]) {
		t.Errorf("mobility ordering at last level violated: %v", pos)
	}
	_ = f
}

func TestOrderingConsumersTieBreak(t *testing.T) {
	// Two alap-0 mobility-0 heads; the one with more consumers first.
	b := dfg.NewBuilder("cons")
	x, y := b.Input("x"), b.Input("y")
	two := b.Named("two", dfg.OpAdd, 0, x, y)
	one := b.Named("one", dfg.OpAdd, 0, y, x)
	s1 := b.Named("s1", dfg.OpAdd, 0, two, one)
	s2 := b.Named("s2", dfg.OpAdd, 0, two, x)
	b.Output(s1)
	b.Output(s2)
	g := b.Graph()
	dp := dp2x11(t)
	times := dfg.Analyze(g, dp.Latency, 0)
	order := orderNodes(g, times, dp.Latency, false)
	if order[0].Name() != "two" {
		t.Errorf("first bound op = %s, want two (more consumers)", order[0].Name())
	}
}

func TestOrderingReverseStartsAtOutputs(t *testing.T) {
	b := dfg.NewBuilder("rev")
	x, y := b.Input("x"), b.Input("y")
	a := b.Named("a", dfg.OpAdd, 0, x, y)
	c := b.Named("c", dfg.OpAdd, 0, a, y)
	e := b.Named("e", dfg.OpAdd, 0, c, y)
	b.Output(e)
	g := b.Graph()
	dp := dp2x11(t)
	times := dfg.Analyze(g, dp.Latency, 0)
	order := orderNodes(g, times, dp.Latency, true)
	if order[0].Name() != "e" || order[2].Name() != "a" {
		t.Errorf("reverse order = [%s %s %s], want [e c a]",
			order[0].Name(), order[1].Name(), order[2].Name())
	}
}

// TestTrcostFigure3 reproduces the paper's Figure 3 exactly: v1 bound to
// A feeds v; v2 bound to A shares the unbound consumer v3 with v. Binding
// v to B costs trcost_dd = 1 and trcost_cc = 1, total 2.
func TestTrcostFigure3(t *testing.T) {
	b := dfg.NewBuilder("fig3")
	x, y := b.Input("x"), b.Input("y")
	v1 := b.Named("v1", dfg.OpAdd, 0, x, y)
	v2 := b.Named("v2", dfg.OpAdd, 0, y, x)
	v := b.Named("v", dfg.OpAdd, 0, v1, x)
	v3 := b.Named("v3", dfg.OpAdd, 0, v, v2)
	b.Output(v3)
	g := b.Graph()

	const A, B = 0, 1
	bn := make([]int, g.NumNodes())
	for i := range bn {
		bn[i] = -1
	}
	bn[v1.Node().ID()] = A
	bn[v2.Node().ID()] = A

	dp2 := machine.MustParse("[2,1|2,1]", machine.Config{})
	costB, trsB := trcost(nil, v.Node(), B, dp2, bn, false)
	if costB != 2 {
		t.Errorf("trcost(v,B) = %d, want 2 (dd=1 + cc=1)", costB)
	}
	if len(trsB) != 1 || trsB[0].Prod != v1.Node() || trsB[0].Dest != B {
		t.Errorf("transfers for B = %+v, want one v1->B", trsB)
	}
	costA, trsA := trcost(nil, v.Node(), A, dp2, bn, false)
	if costA != 0 || len(trsA) != 0 {
		t.Errorf("trcost(v,A) = %d with %d transfers, want 0/0", costA, len(trsA))
	}
	_ = v3
}

func TestTrcostReverse(t *testing.T) {
	// Reverse direction: consumers bound, producers pending. Two bound
	// consumers in the same foreign cluster count once (one transfer of
	// v's result).
	b := dfg.NewBuilder("revtr")
	x, y := b.Input("x"), b.Input("y")
	v := b.Named("v", dfg.OpAdd, 0, x, y)
	c1 := b.Named("c1", dfg.OpAdd, 0, v, y)
	c2 := b.Named("c2", dfg.OpSub, 0, v, y)
	b.Output(c1)
	b.Output(c2)
	g := b.Graph()
	bn := []int{-1, 1, 1}
	dp2 := machine.MustParse("[2,1|2,1]", machine.Config{})
	cost, trs := trcost(nil, v.Node(), 0, dp2, bn, true)
	if cost != 1 || len(trs) != 1 {
		t.Errorf("reverse trcost = %d (%d transfers), want 1/1", cost, len(trs))
	}
	if trs[0].Prod != v.Node() || trs[0].Dest != 1 {
		t.Errorf("reverse transfer = %+v, want v -> cluster 1", trs[0])
	}
	cost0, _ := trcost(nil, v.Node(), 1, dp2, bn, true)
	if cost0 != 0 {
		t.Errorf("reverse trcost same cluster = %d, want 0", cost0)
	}
	_ = g
}

// TestInitialAllocations holds a whole B-INIT driver sweep on a large
// paper row under 2,000 allocated objects: every (op, cluster) probe of
// the greedy pass reuses the same two transfer buffers instead of
// allocating a list of its own (about 3,900 objects when each did).
func TestInitialAllocations(t *testing.T) {
	k, err := kernels.ByName("DCT-DIT-2")
	if err != nil {
		t.Fatal(err)
	}
	g, dp := k.Build(), machine.MustParse("[3,1|2,2|1,3]", machine.Config{})
	n := testing.AllocsPerRun(3, func() {
		if _, err = Initial(g, dp, Options{Parallelism: 1}); err != nil {
			panic(err)
		}
	})
	if n >= 2000 {
		t.Errorf("Initial allocates %.0f objects per call, want < 2000", n)
	}
	t.Logf("Initial: %.0f objects per call", n)
}

func TestInitialOnceKeepsChainsTogether(t *testing.T) {
	// Two independent chains on two clusters: the greedy binder should
	// put each chain in one cluster — zero moves.
	b := dfg.NewBuilder("chains")
	x, y := b.Input("x"), b.Input("y")
	v := b.Add(x, y)
	for i := 0; i < 3; i++ {
		v = b.Add(v, y)
	}
	w := b.Sub(x, y)
	for i := 0; i < 3; i++ {
		w = b.Sub(w, y)
	}
	b.Output(v)
	b.Output(w)
	g := b.Graph()
	dp := dp2x11(t)
	bn, err := InitialOnce(g, dp, 0, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(g, dp, bn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves() != 0 {
		t.Errorf("two chains produced %d moves, want 0", res.Moves())
	}
	if res.L() != 4 {
		t.Errorf("L = %d, want 4 (chains in parallel)", res.L())
	}
	if err := sched.Check(res.Schedule); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestInitialSplitsParallelWork(t *testing.T) {
	// 8 independent adds on [1,1|1,1]: must use both clusters (L=4),
	// not serialize on one (L=8).
	b := dfg.NewBuilder("wide")
	x, y := b.Input("x"), b.Input("y")
	for i := 0; i < 8; i++ {
		b.Output(b.Add(x, y))
	}
	g := b.Graph()
	res, err := Initial(g, dp2x11(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.L() != 4 {
		t.Errorf("8 adds on 2 single-ALU clusters: L = %d, want 4", res.L())
	}
	if res.Moves() != 0 {
		t.Errorf("independent adds need no moves, got %d", res.Moves())
	}
}

func TestInitialRespectsTargetSets(t *testing.T) {
	// Mul can only run in cluster 1.
	b := dfg.NewBuilder("ts")
	x, y := b.Input("x"), b.Input("y")
	m := b.Mul(x, y)
	a := b.Add(m, y)
	b.Output(a)
	g := b.Graph()
	dp := machine.MustParse("[1,0|1,1]", machine.Config{})
	res, err := Initial(g, dp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Binding[m.Node().ID()] != 1 {
		t.Errorf("mul bound to cluster %d, want 1", res.Binding[m.Node().ID()])
	}
}

func TestInitialErrorsWhenUnsupported(t *testing.T) {
	b := dfg.NewBuilder("nosup")
	x := b.Input("x")
	b.Output(b.Mul(x, x))
	g := b.Graph()
	dp := machine.MustParse("[1,0|2,0]", machine.Config{})
	if _, err := Initial(g, dp, Options{}); err == nil {
		t.Error("Initial accepted a graph with an unsupported op")
	}
}

func TestQualityVectorQU(t *testing.T) {
	// Figure 6: at equal L, fewer operations completing at the last
	// cycle is strictly better; Q_M cannot see the difference.
	qa := Quality{10, 2, 1} // two ops at the last cycle
	qb := Quality{10, 1, 2} // one op at the last cycle
	if !qb.Less(qa) || qa.Less(qb) {
		t.Error("Q_U should prefer fewer last-cycle completions")
	}
	// L dominates everything.
	if !(Quality{9, 99, 99}).Less(Quality{10, 0, 0}) {
		t.Error("lower latency must dominate")
	}
	// Zero-extension: (10,1) vs (10,1,0) are equal.
	if !(Quality{10, 1}).Equal(Quality{10, 1, 0}) {
		t.Error("zero extension broken")
	}
	if (Quality{10, 1}).Less(Quality{10, 1}) {
		t.Error("Less must be irreflexive")
	}
	// (10,0,5) < (10,1,0).
	if !(Quality{10, 0, 5}).Less(Quality{10, 1, 0}) {
		t.Error("lexicographic comparison broken")
	}
}

func TestQualityFromSchedules(t *testing.T) {
	b := dfg.NewBuilder("q")
	x, y := b.Input("x"), b.Input("y")
	v1 := b.Add(x, y)
	v2 := b.Add(v1, y)
	b.Output(v2)
	b.Output(b.Add(x, x))
	g := b.Graph()
	dp := dp2x11(t)
	res, err := Evaluate(g, dp, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	qu := QualityU(res.Schedule)
	if qu[0] != res.L() {
		t.Errorf("Q_U[0] = %d, want L = %d", qu[0], res.L())
	}
	qm := QualityM(res.Schedule)
	if qm[0] != res.L() || qm[1] != res.Moves() {
		t.Errorf("Q_M = %v, want [%d %d]", qm, res.L(), res.Moves())
	}
}

func TestBoundaryOps(t *testing.T) {
	b := dfg.NewBuilder("bops")
	x, y := b.Input("x"), b.Input("y")
	a := b.Named("a", dfg.OpAdd, 0, x, y)
	c := b.Named("c", dfg.OpAdd, 0, a, y)
	e := b.Named("e", dfg.OpAdd, 0, c, y)
	b.Output(e)
	g := b.Graph()
	// a|c boundary between clusters: a and c are boundary, e is not.
	ops := boundaryOps(nil, g, []int{0, 1, 1})
	names := map[string]bool{}
	for _, v := range ops {
		names[v.Name()] = true
	}
	if !names["a"] || !names["c"] || names["e"] {
		t.Errorf("boundary ops = %v, want {a c}", names)
	}
	// Uniform binding: no boundary ops.
	if n := len(boundaryOps(nil, g, []int{0, 0, 0})); n != 0 {
		t.Errorf("uniform binding has %d boundary ops, want 0", n)
	}
}

// TestBoundaryPerturbation exercises the Figure 5 scenario: an op bound
// apart from both its producer and consumer gets pulled back by B-ITER,
// removing both transfers.
func TestBoundaryPerturbation(t *testing.T) {
	b := dfg.NewBuilder("fig5")
	x, y := b.Input("x"), b.Input("y")
	v1 := b.Named("v1", dfg.OpAdd, 0, x, y)
	v2 := b.Named("v2", dfg.OpAdd, 0, v1, y)
	v3 := b.Named("v3", dfg.OpAdd, 0, v2, y)
	b.Output(v3)
	g := b.Graph()
	dp := dp2x11(t)
	// Deliberately bad: middle op stranded on cluster 1.
	start, err := Evaluate(g, dp, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if start.Moves() != 2 {
		t.Fatalf("stranded binding has %d moves, want 2", start.Moves())
	}
	improved, err := Improve(start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if improved.Moves() != 0 {
		t.Errorf("B-ITER left %d moves, want 0", improved.Moves())
	}
	if improved.L() != 3 {
		t.Errorf("B-ITER latency %d, want 3", improved.L())
	}
}

func TestImproveNeverWorse(t *testing.T) {
	b := dfg.NewBuilder("nw")
	x, y := b.Input("x"), b.Input("y")
	var outs []dfg.Value
	v := b.Add(x, y)
	for i := 0; i < 5; i++ {
		v = b.Add(v, y)
		if i%2 == 0 {
			outs = append(outs, v)
		}
	}
	w := b.Mul(x, y)
	for i := 0; i < 4; i++ {
		w = b.Mul(w, y)
	}
	outs = append(outs, v, w)
	for _, o := range outs {
		b.Output(o)
	}
	g := b.Graph()
	dp := machine.MustParse("[2,1|1,1]", machine.Config{})
	init, err := Initial(g, dp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	impr, err := Improve(init, Options{Sideways: 2})
	if err != nil {
		t.Fatal(err)
	}
	if impr.L() > init.L() {
		t.Errorf("Improve worsened latency: %d -> %d", init.L(), impr.L())
	}
	if impr.L() == init.L() && impr.Moves() > init.Moves() {
		t.Errorf("Improve added moves at equal latency: %d -> %d", init.Moves(), impr.Moves())
	}
	if err := sched.Check(impr.Schedule); err != nil {
		t.Errorf("improved schedule invalid: %v", err)
	}
}

func TestBindMatchesExhaustiveOnSmallGraphs(t *testing.T) {
	// Exhaustive search over all 2^6 bindings of a 6-op graph: B-ITER
	// must reach the optimal latency.
	b := dfg.NewBuilder("small")
	x, y := b.Input("x"), b.Input("y")
	a1 := b.Add(x, y)
	a2 := b.Add(a1, x)
	m1 := b.Mul(x, y)
	m2 := b.Mul(m1, y)
	s1 := b.Add(a2, m2)
	s2 := b.Sub(a2, m2)
	b.Output(s1)
	b.Output(s2)
	g := b.Graph()
	dp := dp2x11(t)

	bestL, bestM := 1<<30, 1<<30
	n := g.NumNodes()
	for mask := 0; mask < 1<<n; mask++ {
		bn := make([]int, n)
		for i := 0; i < n; i++ {
			bn[i] = (mask >> i) & 1
		}
		res, err := Evaluate(g, dp, bn)
		if err != nil {
			t.Fatal(err)
		}
		if res.L() < bestL || (res.L() == bestL && res.Moves() < bestM) {
			bestL, bestM = res.L(), res.Moves()
		}
	}
	res, err := Bind(g, dp, Options{Sideways: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.L() != bestL {
		t.Errorf("Bind L = %d, exhaustive optimum %d", res.L(), bestL)
	}
}

func TestBindDeterministic(t *testing.T) {
	b := dfg.NewBuilder("det")
	x, y := b.Input("x"), b.Input("y")
	var last dfg.Value = x
	for i := 0; i < 12; i++ {
		if i%3 == 2 {
			last = b.Mul(last, y)
		} else {
			last = b.Add(last, y)
		}
		if i%4 == 3 {
			b.Output(last)
		}
	}
	b.Output(last)
	g := b.Graph()
	dp := machine.MustParse("[2,1|1,1]", machine.Config{})
	r1, err := Bind(g, dp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Bind(g, dp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Binding {
		if r1.Binding[i] != r2.Binding[i] {
			t.Fatalf("nondeterministic binding at node %d", i)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Alpha != 1.0 || o.Beta != 1.0 || o.Gamma != 1.1 {
		t.Errorf("defaults = %v/%v/%v, want 1/1/1.1", o.Alpha, o.Beta, o.Gamma)
	}
	o2 := Options{Alpha: 2, Beta: 3, Gamma: 4}.withDefaults()
	if o2.Alpha != 2 || o2.Beta != 3 || o2.Gamma != 4 {
		t.Error("explicit weights overridden")
	}
}

func TestImproveNilResult(t *testing.T) {
	if _, err := Improve(nil, Options{}); err == nil {
		t.Error("Improve(nil) succeeded")
	}
}

func TestNeighborClusters(t *testing.T) {
	b := dfg.NewBuilder("nc")
	x, y := b.Input("x"), b.Input("y")
	a := b.Named("a", dfg.OpAdd, 0, x, y)
	c := b.Named("c", dfg.OpMul, 0, a, a)
	e := b.Named("e", dfg.OpAdd, 0, c, y)
	b.Output(e)
	g := b.Graph()
	// Cluster 0 has no multiplier: c cannot move to cluster 0 even
	// though its producer lives there.
	dp := machine.MustParse("[1,0|1,1]", machine.Config{})
	bn := []int{0, 1, 1}
	if nc := neighborClusters(nil, dp, g.NodeByName("c"), bn); len(nc) != 0 {
		t.Errorf("neighborClusters(c) = %v, want empty (no mul in cluster 0)", nc)
	}
	if nc := neighborClusters(nil, dp, g.NodeByName("e"), bn); len(nc) != 0 {
		t.Errorf("neighborClusters(e) = %v, want empty (all neighbors in own cluster)", nc)
	}
	bn2 := []int{0, 1, 0}
	nc := neighborClusters(nil, dp, g.NodeByName("e"), bn2)
	if len(nc) != 1 || nc[0] != 1 {
		t.Errorf("neighborClusters(e) = %v, want [1]", nc)
	}
}

func TestEvaluateConsistency(t *testing.T) {
	// Evaluate's schedule must always pass the legality checker, and the
	// bound graph must validate, across several bindings.
	b := dfg.NewBuilder("cons")
	x, y := b.Input("x"), b.Input("y")
	v1 := b.Add(x, y)
	v2 := b.Mul(v1, y)
	v3 := b.Add(v2, x)
	v4 := b.Mul(v1, v3)
	b.Output(v4)
	g := b.Graph()
	dp := dp2x11(t)
	for mask := 0; mask < 16; mask++ {
		bn := []int{mask & 1, (mask >> 1) & 1, (mask >> 2) & 1, (mask >> 3) & 1}
		res, err := Evaluate(g, dp, bn)
		if err != nil {
			t.Fatal(err)
		}
		if err := dfg.Validate(res.Bound); err != nil {
			t.Errorf("binding %v: bound graph invalid: %v", bn, err)
		}
		if err := sched.Check(res.Schedule); err != nil {
			t.Errorf("binding %v: schedule invalid: %v", bn, err)
		}
		want, _ := dfg.EvalOutputs(g, []float64{2, 5})
		got, _ := dfg.EvalOutputs(res.Bound, []float64{2, 5})
		if got[0] != want[0] {
			t.Errorf("binding %v: bound graph computes %v, want %v", bn, got, want)
		}
	}
}

func TestBuildBoundPreservesOutputOrder(t *testing.T) {
	// Outputs marked out of creation order must keep their order in the
	// bound graph, or simulation results stop being comparable
	// (regression: BuildBound used to re-mark outputs in topo order).
	b := dfg.NewBuilder("oo")
	x, y := b.Input("x"), b.Input("y")
	first := b.Named("first", dfg.OpAdd, 0, x, y)
	second := b.Named("second", dfg.OpSub, 0, x, y)
	b.Output(second) // marked before first
	b.Output(first)
	g := b.Graph()
	bg, _, err := problem.BuildBound(g, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	outs := bg.Outputs()
	if len(outs) != 2 || outs[0].Name() != "second" || outs[1].Name() != "first" {
		t.Fatalf("bound output order = %v, want [second first]", outs)
	}
	wantVals, _ := dfg.EvalOutputs(g, []float64{7, 3})
	gotVals, _ := dfg.EvalOutputs(bg, []float64{7, 3})
	for i := range wantVals {
		if wantVals[i] != gotVals[i] {
			t.Errorf("output %d: %v vs %v", i, gotVals[i], wantVals[i])
		}
	}
}
