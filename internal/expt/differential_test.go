package expt

import (
	"fmt"
	"testing"

	"vliwbind/internal/anneal"
	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/kernels"
	"vliwbind/internal/mincut"
	"vliwbind/internal/pcc"
	"vliwbind/internal/sched/schedtest"
)

// TestSharedBusMatchesScalarReference is the routed-interconnect
// refactor's bit-identity proof at the experiment level: every schedule
// the five binders produce on shared-bus machines must equal what the
// frozen pre-interconnect scalar-bus-pool scheduler
// (schedtest.ListScalarRef) derives for the same bound graph and
// binding — same starts, same units, same finishes, same L, field for
// field. Run at parallelism 1 and 4 because the evaluation worker pool
// is the one place concurrency could sneak a different-but-equally-good
// schedule into a result.
func TestSharedBusMatchesScalarReference(t *testing.T) {
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			t.Parallel()
			for _, r := range BaselineRows() {
				k, err := kernels.ByName(r.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				g := k.Build()
				dp, err := r.Datapath()
				if err != nil {
					t.Fatal(err)
				}
				opts := bind.Options{Parallelism: par}
				for _, v := range []struct {
					algo string
					run  func() (*bind.Result, error)
				}{
					{"b-init", func() (*bind.Result, error) { return bind.Initial(g, dp, opts) }},
					{"b-iter", func() (*bind.Result, error) { return bind.Bind(g, dp, opts) }},
					{"pcc", func() (*bind.Result, error) { return pcc.Bind(g, dp, pcc.Options{}) }},
					{"anneal", func() (*bind.Result, error) { return anneal.Bind(g, dp, anneal.Options{Seed: 1}) }},
					{"mincut", func() (*bind.Result, error) { return mincut.Bind(g, dp, mincut.Options{}) }},
				} {
					res, err := v.run()
					if err != nil {
						t.Fatalf("%s on %s: %v", v.algo, r.Name(), err)
					}
					if err := audit.Audit(res); err != nil {
						t.Fatalf("%s on %s failed audit: %v", v.algo, r.Name(), err)
					}
					ref, err := schedtest.ListScalarRef(res.Bound, dp, res.BoundBinding)
					if err != nil {
						t.Fatalf("%s on %s: scalar reference scheduler: %v", v.algo, r.Name(), err)
					}
					if d := schedtest.Diff(res.Schedule, ref); d != "" {
						t.Errorf("%s on %s: route-aware schedule diverges from the scalar bus-pool reference: %s",
							v.algo, r.Name(), d)
					}
				}
			}
		})
	}
}
