package problem_test

// The walks below replay B-ITER's access pattern on one reused
// Evaluator: an incumbent binding and a stream of one- or two-op deltas
// from it, the occasional delta accepted as the new incumbent. Those
// delta candidates were once served by an incremental replay engine,
// since deleted (DESIGN §12); the tests now hold every one of them to a
// full schedule from scratch by the frozen oracle, so scratch carried
// from one near-identical candidate to the next cannot leak into a
// score.

import (
	"fmt"
	"math/rand"
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/problem"
)

// perturbBoundary applies a random one- or two-op boundary move to bn,
// exactly the perturbation shape B-ITER explores.
func perturbBoundary(rng *rand.Rand, g *dfg.Graph, dp *machine.Datapath, bn []int) {
	nMoves := 1 + rng.Intn(2)
	for i := 0; i < nMoves; i++ {
		n := g.Node(rng.Intn(g.NumNodes()))
		ts := dp.TargetSet(n.Op())
		bn[n.ID()] = ts[rng.Intn(len(ts))]
	}
}

// walkDeltas scores trials boundary moves from a random incumbent on
// one Evaluator, each against the oracle, accepting every acceptEvery-th
// candidate as the new incumbent. It returns how many candidates
// differed from their incumbent.
func walkDeltas(t *testing.T, p *problem.Problem, rng *rand.Rand, trials, acceptEvery int) (moved int) {
	t.Helper()
	g, dp := p.Graph(), p.Datapath()
	ev := p.NewEvaluator()
	inc := make([]int, g.NumNodes())
	cand := make([]int, g.NumNodes())
	randomLegalBinding(rng, g, dp, inc)
	checkAgainstOracle(t, ev, inc)
	for trial := 0; trial < trials; trial++ {
		copy(cand, inc)
		perturbBoundary(rng, g, dp, cand)
		for i := range cand {
			if cand[i] != inc[i] {
				moved++
				break
			}
		}
		checkAgainstOracle(t, ev, cand)
		if trial%acceptEvery == acceptEvery-1 { // accept: the candidate becomes the incumbent
			copy(inc, cand)
		}
	}
	return moved
}

// TestDeltaEvaluatorMatchesFull: on every benchmark kernel × datapath
// shape, every delta candidate of a B-ITER-shaped walk scores exactly
// as the full oracle schedules it.
func TestDeltaEvaluatorMatchesFull(t *testing.T) {
	for _, k := range kernels.All() {
		g := k.Build()
		for di, dp := range diffDatapaths {
			t.Run(fmt.Sprintf("%s/dp%d", k.Name, di), func(t *testing.T) {
				p, err := problem.New(g, dp)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(di)*7919 + int64(g.NumNodes())))
				trials := 40
				if testing.Short() {
					trials = 8
				}
				if moved := walkDeltas(t, p, rng, trials, 5); moved == 0 && !testing.Short() {
					t.Errorf("no boundary move changed the binding in %d trials; the walk never left its incumbent", trials)
				}
			})
		}
	}
}

// TestDeltaEvaluatorMatchesFullOnRandomGraphs widens the walk to
// synthetic DAGs.
func TestDeltaEvaluatorMatchesFullOnRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped with -short")
	}
	for seed := int64(1); seed <= 10; seed++ {
		g := kernels.Random(kernels.RandomConfig{
			Ops:      12 + int(seed)*6,
			Locality: 0.25 + float64(seed%4)*0.2,
			Seed:     seed,
		})
		p, err := problem.New(g, diffDatapaths[int(seed)%len(diffDatapaths)])
		if err != nil {
			t.Fatal(err)
		}
		walkDeltas(t, p, rand.New(rand.NewSource(seed*104729)), 25, 4)
	}
}

// TestDeltaInvalidBindingErrors: an Evaluator that has just scored a
// valid incumbent rejects each invalid delta with the same error, word
// for word, as a fresh Evaluator does, and still scores the incumbent
// exactly afterwards.
func TestDeltaInvalidBindingErrors(t *testing.T) {
	dp := machine.MustParse("[2,1|1,0]", machine.Config{})
	g := kernels.All()[0].Build()
	p := problem.Must(g, dp)
	ev := p.NewEvaluator()
	inc := make([]int, g.NumNodes())
	checkAgainstOracle(t, ev, inc)

	rejectLikeFresh := func(bn []int) {
		t.Helper()
		_, got := ev.Evaluate(bn)
		_, want := p.NewEvaluator().Evaluate(bn)
		if got == nil || want == nil {
			t.Fatalf("binding %v: reused err=%v, fresh err=%v; both must reject it", bn, got, want)
		}
		if got.Error() != want.Error() {
			t.Fatalf("binding %v: reused err %q, fresh err %q", bn, got, want)
		}
		checkAgainstOracle(t, ev, bn)
	}
	bad := append([]int(nil), inc...)
	bad[0] = 99
	rejectLikeFresh(bad)
	rejectLikeFresh(make([]int, 1))
	// A multiply forced onto the mul-less cluster 1, if the kernel has one.
	for _, n := range g.Nodes() {
		if n.FUType() == dfg.FUMul {
			bad2 := append([]int(nil), inc...)
			bad2[n.ID()] = 1
			rejectLikeFresh(bad2)
			break
		}
	}
	checkAgainstOracle(t, ev, inc)
}

// wideGraph builds w independent two-op chains feeding one final sum
// tree of adds — lots of parallelism, so moving one op leaves most of
// the schedule untouched.
func wideGraph(w int) *dfg.Graph {
	b := dfg.NewBuilder("wide")
	var tips []dfg.Value
	for i := 0; i < w; i++ {
		x := b.Add(b.Input(fmt.Sprintf("a%d", i)), b.Input(fmt.Sprintf("b%d", i)))
		tips = append(tips, b.Add(x, b.Input(fmt.Sprintf("c%d", i))))
	}
	v := tips[0]
	for _, tip := range tips[1:] {
		v = b.Add(v, tip)
	}
	b.Output(v)
	return b.Graph()
}

// TestDeltaHitPathAllocsNothing: on the fixture the replay engine's hit
// path was once measured on — a wide graph and a one-op delta at its
// tail — a reused Evaluator scores the delta and its incumbent, turn
// about as a B-ITER worker does, with zero heap allocations.
func TestDeltaHitPathAllocsNothing(t *testing.T) {
	dp := machine.MustParse("[2,1|2,1]", machine.Config{NumBuses: 2})
	g := wideGraph(8)
	p := problem.Must(g, dp)
	ev := p.NewEvaluator()
	inc := make([]int, g.NumNodes())
	for i := range inc {
		inc[i] = i % 2
	}
	cand := append([]int(nil), inc...)
	last := g.NumNodes() - 1
	cand[last] = 1 - cand[last]
	checkAgainstOracle(t, ev, inc)
	checkAgainstOracle(t, ev, cand)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ev.Evaluate(inc); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Evaluate(cand); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("scoring a one-op delta and its incumbent allocates %.1f times, want 0", allocs)
	}
}
