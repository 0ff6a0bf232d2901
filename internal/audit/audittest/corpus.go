// Package audittest holds the shared corpus on which the audit's stages
// (register allocation and its replay, cycle-accurate simulation, the
// bound-graph check) are held to the frozen references kept in their
// tests: every row of the paper's Tables 1 and 2 bound by B-INIT,
// random graphs under random bindings on shared-bus, ring and
// point-to-point machines, and spill-rebound results carrying store and
// reload code. Only tests import it.
package audittest

import (
	"fmt"
	"sync"

	"vliwbind/internal/bind"
	"vliwbind/internal/codegen"
	"vliwbind/internal/expt"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
)

// Case is one certified result of the corpus.
type Case struct {
	Name string
	Res  *bind.Result
}

// Corpus builds the cases once per test binary.
var Corpus = sync.OnceValues(func() ([]Case, error) {
	var out []Case
	rows := append(expt.Table1(), expt.Table2()...)
	for _, r := range rows {
		k, err := kernels.ByName(r.Kernel)
		if err != nil {
			return nil, err
		}
		dp, err := r.Datapath()
		if err != nil {
			return nil, err
		}
		res, err := bind.Initial(k.Build(), dp, bind.Options{Parallelism: 1})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name(), err)
		}
		out = append(out, Case{r.Name(), res})
	}

	machines := []struct {
		name string
		dp   *machine.Datapath
	}{
		{"bus", machine.MustParse("[1,1|1,1|1,1]", machine.Config{NumBuses: 2, MoveLat: 1})},
		{"ring:1", machine.MustParse("[1,1|1,1|1,1|1,1]", machine.Config{Topology: machine.TopoRing, LinkCap: 1})},
		{"p2p", machine.MustParse("[2,1|1,1|1,1]", machine.Config{Topology: machine.TopoP2P, LinkCap: 1})},
	}
	for _, m := range machines {
		for seed := int64(1); seed <= 8; seed++ {
			g := kernels.Random(kernels.RandomConfig{Ops: 12 + 5*int(seed), Seed: seed})
			bn := make([]int, g.NumNodes())
			x := uint32(seed)*2654435761 | 1
			for i := range bn {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				bn[i] = int(x % uint32(m.dp.NumClusters()))
			}
			res, err := bind.Evaluate(g, m.dp, bn)
			if err != nil {
				return nil, fmt.Errorf("random %s seed %d: %w", m.name, seed, err)
			}
			out = append(out, Case{fmt.Sprintf("random %s seed %d", m.name, seed), res})
		}
	}

	for _, sp := range []struct {
		kernel, dp string
		maxRegs    int
	}{{"ARF", "[1,1|1,1]", 6}, {"EWF", "[2,1|2,1]", 6}} {
		k, err := kernels.ByName(sp.kernel)
		if err != nil {
			return nil, err
		}
		g := k.Build()
		dp := machine.MustParse(sp.dp, machine.Config{NumBuses: 2, MoveLat: 1})
		ini, err := bind.Initial(g, dp, bind.Options{Parallelism: 1})
		if err != nil {
			return nil, err
		}
		sr, err := codegen.SpillRebind(g, dp, ini.Binding, sp.maxRegs)
		if err != nil {
			return nil, fmt.Errorf("spill %s: %w", sp.kernel, err)
		}
		out = append(out, Case{fmt.Sprintf("%s %s spilled to %d registers", sp.kernel, sp.dp, sp.maxRegs), sr.Result})
	}
	return out, nil
})
