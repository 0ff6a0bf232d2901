// External test package: the frozen reference schedulers live in
// schedtest, which imports sched, so a test that holds List to them
// cannot be in package sched. The wider differential proofs — the
// Evaluator and List against ListSortRef on every benchmark kernel, and
// the five binders' shared-bus schedules against ListScalarRef — live
// in internal/problem, internal/bind and internal/expt.
package sched_test

import (
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/sched"
	"vliwbind/internal/sched/schedtest"
)

// TestScalarRefDifferential is the package-level slice of the shared-bus
// bit-identity proof: on bus machines, the route-aware List and the
// frozen pre-interconnect ListScalarRef must produce equal schedules
// (same starts, units, finishes and profile). The full five-binder
// sweep version is TestSharedBusMatchesScalarReference in internal/expt.
func TestScalarRefDifferential(t *testing.T) {
	mg, _ := sched.MoveGraph(t)
	cases := []struct {
		g       *dfg.Graph
		dp      *machine.Datapath
		binding []int
	}{
		{sched.ChainGraph(7), machine.MustParse("[1,1]", machine.Config{NumBuses: 1}), make([]int, 7)},
		{sched.WideGraph(9), machine.MustParse("[3,1]", machine.Config{NumBuses: 2}), make([]int, 9)},
		{mg, machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1}), []int{0, 1, 1}},
		{mg, machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 3, MoveLat: 2}), []int{0, 1, 1}},
	}
	for i, tc := range cases {
		got, err := sched.List(tc.g, tc.dp, tc.binding)
		if err != nil {
			t.Fatalf("case %d List: %v", i, err)
		}
		want, err := schedtest.ListScalarRef(tc.g, tc.dp, tc.binding)
		if err != nil {
			t.Fatalf("case %d ListScalarRef: %v", i, err)
		}
		if d := schedtest.Diff(got, want); d != "" {
			t.Errorf("case %d: route-aware schedule diverged from the scalar reference: %s", i, d)
		}
	}
}

// TestListTranslationCases holds List to the frozen oracle on the
// inputs whose translation into the Lister's flat graph is special: a
// degenerate same-cluster move and a move of a block input (each one
// hop on link 0), a spill reload (held to its ALAP level) and a move
// that takes two hops on a ring. Each input runs on a four-cluster ring
// and on a three-cluster machine with two shared buses, with transfers
// contending for link 0 or for a hop's link; every schedule must also
// pass Check.
func TestListTranslationCases(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *dfg.Builder, x, y dfg.Value) []int // returns the binding
	}{
		{"same-cluster move", func(b *dfg.Builder, x, y dfg.Value) []int {
			a := b.Named("a", dfg.OpAdd, 0, x, y)
			m := b.NamedMove("m", a) // stays in c0
			n := b.NamedMove("n", a) // c0 to c1, link 0 on the ring
			b.Output(b.Named("c", dfg.OpAdd, 0, m, a))
			b.Output(b.Named("d", dfg.OpNeg, 0, n))
			return []int{0, 0, 1, 0, 1}
		}},
		{"block-input move", func(b *dfg.Builder, x, y dfg.Value) []int {
			m := b.NamedMove("m", x)
			c := b.Named("c", dfg.OpAdd, 0, m, y)
			n := b.NamedMove("n", y)
			b.Output(b.Named("d", dfg.OpNeg, 0, n))
			a := b.Named("a", dfg.OpAdd, 0, x, y)
			p := b.NamedMove("p", a)
			b.Output(b.Named("e", dfg.OpAdd, 0, p, c))
			return []int{1, 1, 2, 2, 0, 1, 1}
		}},
		{"spill reload", func(b *dfg.Builder, x, y dfg.Value) []int {
			a := b.Named("a", dfg.OpAdd, 0, x, y)
			st := b.Named("st", dfg.OpStore, 0, a)
			b1 := b.Named("b1", dfg.OpNeg, 0, a)
			b2 := b.Named("b2", dfg.OpNeg, 0, b1)
			b3 := b.Named("b3", dfg.OpNeg, 0, b2)
			ld := b.Named("ld", dfg.OpLoad, 0, st) // free at 2, held to 3
			b.Output(b.Named("o", dfg.OpAdd, 0, ld, b3))
			return make([]int, 7)
		}},
		{"two-hop ring move", func(b *dfg.Builder, x, y dfg.Value) []int {
			a := b.Named("a", dfg.OpAdd, 0, x, y)
			w := b.Named("w", dfg.OpAdd, 0, x, y)
			m := b.NamedMove("m", a) // c0 to c2: links c0>c1, c1>c2 on the ring
			n := b.NamedMove("n", w) // c1 to c2
			o := b.NamedMove("o", a) // c0 to c1
			b.Output(b.Named("c", dfg.OpAdd, 0, m, n))
			b.Output(b.Named("d", dfg.OpNeg, 0, o))
			return []int{0, 1, 2, 2, 1, 2, 1}
		}},
	}
	machines := []*machine.Datapath{
		machine.MustParse("[1,1|1,1|1,1|1,1]", machine.Config{Topology: machine.TopoRing}),
		machine.MustParse("[1,1|1,1|1,1]", machine.Config{NumBuses: 2}),
	}
	for _, dp := range machines {
		for _, tc := range cases {
			b := dfg.NewBuilder(tc.name)
			binding := tc.build(b, b.Input("x"), b.Input("y"))
			g := b.Graph()
			got, err := sched.List(g, dp, binding)
			if err != nil {
				t.Fatalf("%s on %s: List: %v", tc.name, dp, err)
			}
			want, err := schedtest.ListSortRef(g, dp, binding)
			if err != nil {
				t.Fatalf("%s on %s: ListSortRef: %v", tc.name, dp, err)
			}
			if d := schedtest.Diff(got, want); d != "" {
				t.Errorf("%s on %s: List diverged from the oracle: %s", tc.name, dp, d)
			}
			if err := sched.Check(got); err != nil {
				t.Errorf("%s on %s: %v", tc.name, dp, err)
			}
		}
	}
}
