// External test package: the differential proofs hold the Evaluator,
// and sched.List on the materialized bound graph, to the frozen
// sort-based oracle in schedtest, which imports problem.
package problem_test

import (
	"fmt"
	"math/rand"
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/problem"
	"vliwbind/internal/sched/schedtest"
)

// diffDatapaths spans the shapes that stress the schedulers
// differently: the paper's homogeneous machine, a heterogeneous one
// (clusters that cannot run multiplies), a single-bus machine (bus
// contention), a pipelined-multiplier one (lat ≠ dii on one FU type
// plus a 2-cycle bus), then the routed interconnects — point to point,
// a three-cluster ring, and a four-cluster ring whose moves take up to
// two hops.
var diffDatapaths = []*machine.Datapath{
	machine.MustParse("[2,1|2,1]", machine.Config{}),
	machine.MustParse("[2,1|1,1|1,0]", machine.Config{}),
	machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1}),
	machine.MustParse("[2,1|2,1]", machine.Config{Mul: machine.ResourceSpec{Lat: 3, DII: 1}, MoveLat: 2}),
	machine.MustParse("[2,1|1,1]", machine.Config{Topology: machine.TopoP2P}),
	machine.MustParse("[2,1|1,1|1,1]", machine.Config{Topology: machine.TopoRing}),
	machine.MustParse("[1,1|1,1|1,1|1,1]", machine.Config{Topology: machine.TopoRing}),
}

// numBusDatapaths is how many leading diffDatapaths are shared-bus
// machines.
const numBusDatapaths = 4

func checkAgainstOracle(t *testing.T, ev *problem.Evaluator, bn []int) {
	t.Helper()
	if err := schedtest.CheckEvaluator(ev, bn); err != nil {
		t.Fatal(err)
	}
}

// randomLegalBinding fills bn with a uniformly random legal binding.
func randomLegalBinding(rng *rand.Rand, g *dfg.Graph, dp *machine.Datapath, bn []int) {
	for _, n := range g.Nodes() {
		ts := dp.TargetSet(n.Op())
		bn[n.ID()] = ts[rng.Intn(len(ts))]
	}
}

// TestEvaluatorMatchesMaterialized is the central differential test of
// the scheduling core: on every benchmark kernel × datapath shape, a few
// hundred random bindings must schedule bit-identically through the
// Evaluator, through sched.List on the materialized bound graph, and
// through the sort-based oracle, reusing one Evaluator throughout (so
// scratch reuse bugs cannot hide).
func TestEvaluatorMatchesMaterialized(t *testing.T) {
	for _, k := range kernels.All() {
		g := k.Build()
		for di, dp := range diffDatapaths {
			t.Run(fmt.Sprintf("%s/dp%d", k.Name, di), func(t *testing.T) {
				p, err := problem.New(g, dp)
				if err != nil {
					t.Fatal(err)
				}
				ev := p.NewEvaluator()
				rng := rand.New(rand.NewSource(int64(di)*1000 + int64(g.NumNodes())))
				trials := 60
				if testing.Short() {
					trials = 10
				}
				bn := make([]int, g.NumNodes())
				for trial := 0; trial < trials; trial++ {
					randomLegalBinding(rng, g, dp, bn)
					checkAgainstOracle(t, ev, bn)
				}
				// Degenerate corners: everything on one cluster (no moves),
				// and a maximally split binding.
				for _, n := range g.Nodes() {
					bn[n.ID()] = dp.TargetSet(n.Op())[0]
				}
				checkAgainstOracle(t, ev, bn)
				for _, n := range g.Nodes() {
					ts := dp.TargetSet(n.Op())
					bn[n.ID()] = ts[n.ID()%len(ts)]
				}
				checkAgainstOracle(t, ev, bn)
			})
		}
	}
}

// TestEvaluatorMatchesOnRandomGraphs widens the differential net beyond
// the benchmark suite: synthetic DAGs of varying shape and size, each
// on one shared-bus and one routed machine.
func TestEvaluatorMatchesOnRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped with -short")
	}
	routed := len(diffDatapaths) - numBusDatapaths
	for seed := int64(1); seed <= 12; seed++ {
		g := kernels.Random(kernels.RandomConfig{
			Ops:      10 + int(seed)*7,
			Locality: 0.3 + float64(seed%3)*0.3,
			Seed:     seed,
		})
		for _, dp := range []*machine.Datapath{
			diffDatapaths[int(seed)%numBusDatapaths],
			diffDatapaths[numBusDatapaths+int(seed)%routed],
		} {
			p, err := problem.New(g, dp)
			if err != nil {
				t.Fatal(err)
			}
			ev := p.NewEvaluator()
			rng := rand.New(rand.NewSource(seed))
			bn := make([]int, g.NumNodes())
			for trial := 0; trial < 20; trial++ {
				randomLegalBinding(rng, g, dp, bn)
				checkAgainstOracle(t, ev, bn)
			}
		}
	}
}
