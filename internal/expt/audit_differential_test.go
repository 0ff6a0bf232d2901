package expt

import (
	"strings"
	"testing"

	"vliwbind/internal/anneal"
	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/kernels"
	"vliwbind/internal/mincut"
	"vliwbind/internal/pcc"
)

// multiHopRows are DCT-DIT-2 on two four-cluster rings, where moves
// take up to two hops and one move's later hop books a channel a cycle
// ahead of another move's first hop on it.
var multiHopRows = []Row{
	{Kernel: "DCT-DIT-2", Clusters: "[2,1|1,0|1,0|0,1]", Topology: "ring", LinkCap: 1},
	{Kernel: "DCT-DIT-2", Clusters: "[2,0|2,0|0,1|0,1]", Topology: "ring", LinkCap: 1},
}

// TestAuditDifferentialAllBindersAllRows is the acceptance sweep for the
// invariant auditor: every kernel × Table 1/Table 2 datapath plus the
// multi-hop rings, all five binders (min-cut skips the heterogeneous
// rows it refuses by design), every result certified end to end by
// audit.Audit. With -short only a representative prefix and the rings
// run; the full sweep is the tier that guards the paper-reproduction
// claim.
func TestAuditDifferentialAllBindersAllRows(t *testing.T) {
	rows := append(append(Table1(), Table2()...), multiHopRows...)
	if testing.Short() {
		rows = append(append(append([]Row(nil), Table1()[:3]...), Table2()[0]), multiHopRows...)
	}
	for _, r := range rows {
		k, err := kernels.ByName(r.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		g := k.Build()
		dp, err := r.Datapath()
		if err != nil {
			t.Fatal(err)
		}
		for _, bd := range []struct {
			name string
			run  func() (*bind.Result, error)
		}{
			{"b-init", func() (*bind.Result, error) { return bind.Initial(g, dp, bind.Options{}) }},
			{"b-iter", func() (*bind.Result, error) { return bind.Bind(g, dp, bind.Options{}) }},
			{"pcc", func() (*bind.Result, error) { return pcc.Bind(g, dp, pcc.Options{}) }},
			{"anneal", func() (*bind.Result, error) { return anneal.Bind(g, dp, anneal.Options{Seed: 1}) }},
			{"mincut", func() (*bind.Result, error) { return mincut.Bind(g, dp, mincut.Options{}) }},
		} {
			res, err := bd.run()
			if err != nil {
				if bd.name == "mincut" && strings.Contains(err.Error(), "homogeneous") {
					continue // documented Section 4 limitation, not a failure
				}
				t.Fatalf("%s %s: %v", r.Name(), bd.name, err)
			}
			if err := audit.Audit(res); err != nil {
				t.Errorf("%s %s: %v", r.Name(), bd.name, err)
			}
		}
	}
}
