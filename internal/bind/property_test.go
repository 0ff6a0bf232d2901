package bind

import (
	"testing"
	"testing/quick"

	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/problem"
	"vliwbind/internal/sched"
	"vliwbind/internal/vliwsim"
)

// propDatapaths are the machines the binding properties are checked on.
var propDatapaths = []string{"[1,1|1,1]", "[2,1|1,1]", "[2,1|1,2|1,1]"}

func propGraph(seed uint32, ops uint8) *dfg.Graph {
	return kernels.Random(kernels.RandomConfig{
		Ops:      int(ops%30) + 3,
		Seed:     int64(seed),
		Locality: 0.4,
	})
}

// TestQuickArbitraryBindingsAreLegal: for ANY target-set-respecting
// binding, the bound graph validates, the list schedule passes the
// legality checker, and the cycle-accurate execution reproduces the
// reference evaluation. This is the keystone invariant of the repository.
func TestQuickArbitraryBindingsAreLegal(t *testing.T) {
	f := func(seed uint32, ops uint8, dpSel uint8, pick uint32) bool {
		g := propGraph(seed, ops)
		dp := machine.MustParse(propDatapaths[int(dpSel)%len(propDatapaths)], machine.Config{})
		bn := make([]int, g.NumNodes())
		rng := pick | 1
		for i, n := range g.Nodes() {
			ts := dp.TargetSet(n.Op())
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			bn[i] = ts[int(rng)%len(ts)]
		}
		res, err := Evaluate(g, dp, bn)
		if err != nil {
			return false
		}
		if dfg.Validate(res.Bound) != nil || sched.Check(res.Schedule) != nil {
			return false
		}
		in := make([]float64, g.NumInputs())
		for i := range in {
			in[i] = float64(i%5) - 2
		}
		return vliwsim.Verify(res.Schedule, in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickBindPipelineInvariants: for every random graph and machine,
// B-INIT and B-ITER produce legal solutions, B-ITER never does worse than
// B-INIT, and both respect the latency lower bound.
func TestQuickBindPipelineInvariants(t *testing.T) {
	f := func(seed uint32, ops uint8, dpSel uint8) bool {
		g := propGraph(seed, ops)
		dp := machine.MustParse(propDatapaths[int(dpSel)%len(propDatapaths)], machine.Config{})
		ini, err := Initial(g, dp, Options{})
		if err != nil {
			return false
		}
		imp, err := Improve(ini, Options{})
		if err != nil {
			return false
		}
		if imp.L() > ini.L() {
			return false
		}
		if imp.L() == ini.L() && imp.Moves() > ini.Moves() {
			return false
		}
		lcp := dfg.CriticalPath(g, dp.Latency)
		if imp.L() < lcp {
			return false
		}
		return sched.Check(imp.Schedule) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickQualityOrder: Quality.Less is a strict weak order — a sound
// comparison for the lexicographic vectors of Section 3.2.
func TestQuickQualityOrder(t *testing.T) {
	toQ := func(raw []uint8) Quality {
		q := make(Quality, len(raw)%6)
		for i := range q {
			q[i] = int(raw[i] % 8)
		}
		return q
	}
	irreflexive := func(raw []uint8) bool {
		q := toQ(raw)
		return !q.Less(q)
	}
	asymmetric := func(ra, rb []uint8) bool {
		a, b := toQ(ra), toQ(rb)
		return !(a.Less(b) && b.Less(a))
	}
	total := func(ra, rb []uint8) bool {
		a, b := toQ(ra), toQ(rb)
		// Exactly one of <, >, == holds.
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a.Equal(b) {
			n++
		}
		return n == 1
	}
	transitive := func(ra, rb, rc []uint8) bool {
		a, b, c := toQ(ra), toQ(rb), toQ(rc)
		if a.Less(b) && b.Less(c) {
			return a.Less(c)
		}
		return true
	}
	for name, f := range map[string]any{
		"irreflexive": irreflexive, "asymmetric": asymmetric,
		"total": total, "transitive": transitive,
	} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestQuickMoveCountMatchesCrossEdges: the number of inserted moves
// always equals the number of distinct (producer, foreign consumer
// cluster) pairs in the binding.
func TestQuickMoveCountMatchesCrossEdges(t *testing.T) {
	f := func(seed uint32, ops uint8, pick uint32) bool {
		g := propGraph(seed, ops)
		bn := make([]int, g.NumNodes())
		rng := pick | 1
		for i := range bn {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			bn[i] = int(rng) & 1
		}
		want := make(map[[2]int]bool)
		for _, n := range g.Nodes() {
			for _, p := range n.Preds() {
				if bn[p.ID()] != bn[n.ID()] {
					want[[2]int{p.ID(), bn[n.ID()]}] = true
				}
			}
		}
		bound, _, err := problem.BuildBound(g, bn)
		if err != nil {
			return false
		}
		return bound.NumMoves() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
