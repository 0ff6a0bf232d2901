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
