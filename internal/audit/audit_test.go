package audit_test

import (
	"strings"
	"testing"

	"vliwbind/internal/anneal"
	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/codegen"
	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/mincut"
	"vliwbind/internal/modulo"
	"vliwbind/internal/pcc"
	"vliwbind/internal/sched"
)

// crossGraph returns a producer/consumer pair that a two-way split binding
// forces through one move: v0 on one cluster feeding v1 on the other.
func crossGraph() *dfg.Graph {
	b := dfg.NewBuilder("cross")
	x, y := b.Input("x"), b.Input("y")
	v0 := b.Named("v0", dfg.OpAdd, 0, x, y)
	v1 := b.Named("v1", dfg.OpAdd, 0, v0, y)
	b.Output(v1)
	return b.Graph()
}

func mustEvaluate(t *testing.T, g *dfg.Graph, dpSpec string, cfg machine.Config, binding []int) *bind.Result {
	t.Helper()
	dp := machine.MustParse(dpSpec, cfg)
	res, err := bind.Evaluate(g, dp, binding)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if err := audit.Audit(res); err != nil {
		t.Fatalf("audit rejects the untampered result: %v", err)
	}
	return res
}

// wantReject audits the result and demands a failure mentioning the given
// substring, so each corruption is caught by the intended check rather
// than an accidental earlier one.
func wantReject(t *testing.T, name string, res *bind.Result, mention string) {
	t.Helper()
	err := audit.Audit(res)
	if err == nil {
		t.Errorf("%s: audit accepted a corrupted result", name)
		return
	}
	if mention != "" && !strings.Contains(err.Error(), mention) {
		t.Errorf("%s: audit rejected for the wrong reason: %v (want mention of %q)", name, err, mention)
	}
}

func TestAuditAcceptsEvaluate(t *testing.T) {
	g := kernels.All()[6].Build() // ARF, the smallest kernel
	mustEvaluate(t, g, "[1,1|1,1]", machine.Config{NumBuses: 2, MoveLat: 1},
		alternating(g.NumNodes()))
}

func alternating(n int) []int {
	bn := make([]int, n)
	for i := range bn {
		bn[i] = i % 2
	}
	return bn
}

func TestAuditRejectsNilAndShape(t *testing.T) {
	if err := audit.Audit(nil); err == nil {
		t.Error("nil result accepted")
	}
	if err := audit.Audit(&bind.Result{}); err == nil {
		t.Error("empty result accepted")
	}
	if err := audit.AuditSchedule(nil); err == nil {
		t.Error("nil schedule accepted")
	}
	if err := audit.AuditAlloc(nil, nil); err == nil {
		t.Error("nil allocation accepted")
	}
	if err := audit.AuditPipelined(nil, 3); err == nil {
		t.Error("nil pipelined schedule accepted")
	}
}

func TestAuditRejectsCorruptBinding(t *testing.T) {
	g := crossGraph()
	res := mustEvaluate(t, g, "[1,1|1,1]", machine.Config{NumBuses: 1}, []int{0, 1})

	// Out-of-range cluster in the binding.
	bad := *res
	bad.Binding = []int{0, 9}
	wantReject(t, "out-of-range binding", &bad, "nonexistent cluster")

	// A different but individually legal binding: the bound graph no
	// longer matches the canonical derivation (here the move disappears).
	bad2 := *res
	bad2.Binding = []int{0, 0}
	wantReject(t, "rebound without rederiving", &bad2, "canonical")

	// Wrong length.
	bad3 := *res
	bad3.Binding = []int{0}
	wantReject(t, "short binding", &bad3, "entries")
}

func TestAuditRejectsTamperedBoundBinding(t *testing.T) {
	g := crossGraph()
	res := mustEvaluate(t, g, "[1,1|1,1]", machine.Config{NumBuses: 1}, []int{0, 1})
	bad := *res
	bad.BoundBinding = append([]int(nil), res.BoundBinding...)
	bad.BoundBinding[0] = 1 - bad.BoundBinding[0]
	wantReject(t, "tampered bound binding", &bad, "bound binding")
}

func TestAuditRejectsDependenceViolation(t *testing.T) {
	g := crossGraph()
	res := mustEvaluate(t, g, "[1,1|1,1]", machine.Config{NumBuses: 1}, []int{0, 1})
	bad := *res
	s := *res.Schedule
	s.Start = append([]int(nil), res.Schedule.Start...)
	v1 := res.Bound.NodeByName("v1")
	s.Start[v1.ID()] = 0 // consumer now issues before its operand exists
	bad.Schedule = &s
	wantReject(t, "dependence violation", &bad, "before operand")
}

func TestAuditRejectsConcreteUnitDoubleBooking(t *testing.T) {
	// Two independent adds on a two-ALU cluster; forcing both onto unit 0
	// stays within aggregate type capacity but double-books the unit.
	b := dfg.NewBuilder("wide")
	x, y := b.Input("x"), b.Input("y")
	b.Output(b.Add(x, y))
	b.Output(b.Sub(x, y))
	g := b.Graph()
	res := mustEvaluate(t, g, "[2,1]", machine.Config{NumBuses: 1}, []int{0, 0})
	bad := *res
	s := *res.Schedule
	s.Unit = append([]int(nil), res.Schedule.Unit...)
	for i := range s.Unit {
		s.Unit[i] = 0
	}
	bad.Schedule = &s
	wantReject(t, "double-booked unit", &bad, "occupy")
}

func TestAuditRejectsMoveOffRealBusChannels(t *testing.T) {
	g := crossGraph()
	res := mustEvaluate(t, g, "[1,1|1,1]", machine.Config{NumBuses: 1}, []int{0, 1})
	mv := res.Bound.NodeByName("t1")
	if mv == nil || !mv.IsMove() {
		t.Fatal("expected the canonical move t1 in the bound graph")
	}
	bad := *res
	s := *res.Schedule
	s.Unit = append([]int(nil), res.Schedule.Unit...)
	s.Unit[mv.ID()] = 1 // only bus0 exists
	bad.Schedule = &s
	wantReject(t, "move beyond bus pool", &bad, "out of range")
}

func TestAuditRejectsInflatedL(t *testing.T) {
	g := crossGraph()
	res := mustEvaluate(t, g, "[1,1|1,1]", machine.Config{NumBuses: 1}, []int{0, 1})
	bad := *res
	s := *res.Schedule
	s.L++
	bad.Schedule = &s
	wantReject(t, "inflated L", &bad, "finish by")
}

func TestAuditScheduleCatchesValueNeverArriving(t *testing.T) {
	// A hand-built "bound" graph with the required move omitted: the list
	// scheduler and sched.Check see a legal timetable, but cycle-accurate
	// execution finds the operand was never transferred into the
	// consumer's cluster.
	g := crossGraph()
	dp := machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1})
	s, err := sched.List(g, dp, []int{0, 1})
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if err := sched.Check(s); err != nil {
		t.Fatalf("static check should pass on this schedule: %v", err)
	}
	if err := audit.AuditSchedule(s); err == nil {
		t.Error("audit missed a cross-cluster read with no transfer")
	} else if !strings.Contains(err.Error(), "never arrives") {
		t.Errorf("rejected for the wrong reason: %v", err)
	}
}

func TestAuditAllocRejectsClobber(t *testing.T) {
	// a and b are simultaneously live (both read by c), so they hold
	// distinct registers; merging them clobbers a before its last read.
	b := dfg.NewBuilder("live2")
	x, y := b.Input("x"), b.Input("y")
	va := b.Named("a", dfg.OpAdd, 0, x, y)
	vb := b.Named("b", dfg.OpSub, 0, x, y)
	b.Output(b.Named("c", dfg.OpAdd, 0, va, vb))
	g := b.Graph()
	res := mustEvaluate(t, g, "[1,1]", machine.Config{NumBuses: 1}, []int{0, 0, 0})
	a, err := codegen.Allocate(res.Schedule, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit.AuditAlloc(res.Schedule, a); err != nil {
		t.Fatalf("audit rejects a clean allocation: %v", err)
	}

	aID := res.Bound.NodeByName("a").ID()
	bID := res.Bound.NodeByName("b").ID()
	if a.Reg[aID] == a.Reg[bID] {
		t.Fatal("overlapping lives unexpectedly share a register already")
	}
	clobbered, _ := codegen.Allocate(res.Schedule, 0)
	clobbered.Reg[bID] = clobbered.Reg[aID]
	if err := audit.AuditAlloc(res.Schedule, clobbered); err == nil {
		t.Error("audit missed a register clobber")
	}

	// Register index beyond the cluster's file.
	oob, _ := codegen.Allocate(res.Schedule, 0)
	oob.Reg[bID] = oob.NumRegs[0] + 3
	if err := audit.AuditAlloc(res.Schedule, oob); err == nil {
		t.Error("audit missed an out-of-file register index")
	}
}

func pipelineLoop(t *testing.T) (*modulo.PipelinedSchedule, *modulo.Loop) {
	t.Helper()
	// A chain of four adds on two single-ALU clusters: ResMII = 2 forces
	// the chain across both clusters, so the schedule carries at least one
	// steady-state bus move for the corruption cases below.
	b := dfg.NewBuilder("chain4")
	x, y := b.Input("x"), b.Input("y")
	a := b.Named("a", dfg.OpAdd, 0, x, y)
	vb := b.Named("b", dfg.OpAdd, 0, a, x)
	vc := b.Named("c", dfg.OpAdd, 0, vb, y)
	b.Output(b.Named("d", dfg.OpAdd, 0, vc, x))
	l := &modulo.Loop{Body: b.Graph()}
	dp := machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1})
	ps, err := modulo.Pipeline(l, dp, modulo.Options{})
	if err != nil {
		t.Fatalf("Pipeline: %v", err)
	}
	return ps, l
}

func TestAuditPipelined(t *testing.T) {
	ps, _ := pipelineLoop(t)
	if err := audit.AuditPipelined(ps, 4); err != nil {
		t.Fatalf("audit rejects a clean pipelined schedule: %v", err)
	}

	// Start tamper: pull the chain's tail earlier than its operand allows.
	bad := *ps
	bad.Start = append([]int(nil), ps.Start...)
	bad.Start[ps.Loop.Body.NodeByName("d").ID()] = 0
	if err := audit.AuditPipelined(&bad, 4); err == nil {
		t.Error("audit missed a pipelined dependence violation")
	}

	// Move to a nonexistent cluster.
	if len(ps.Moves) > 0 {
		bad2 := *ps
		bad2.Moves = append([]modulo.MoveSlot(nil), ps.Moves...)
		bad2.Moves[0].Dest = 9
		if err := audit.AuditPipelined(&bad2, 4); err == nil {
			t.Error("audit missed a move to a nonexistent cluster")
		}

		// Move issued before its producer finishes.
		bad3 := *ps
		bad3.Moves = append([]modulo.MoveSlot(nil), ps.Moves...)
		bad3.Moves[0].Cycle = ps.Start[bad3.Moves[0].Prod.ID()] - 1
		if err := audit.AuditPipelined(&bad3, 4); err == nil {
			t.Error("audit missed a move issued before its producer finishes")
		}

		// Dropped move: a cross-cluster edge loses its transfer.
		bad4 := *ps
		bad4.Moves = ps.Moves[1:]
		if err := audit.AuditPipelined(&bad4, 4); err == nil {
			t.Error("audit missed a dropped steady-state move")
		}
	} else {
		t.Log("pipeline placed everything on one cluster; move corruptions not exercised here")
	}

	// Bad II.
	bad5 := *ps
	bad5.II = 0
	if err := audit.AuditPipelined(&bad5, 4); err == nil {
		t.Error("audit missed II=0")
	}
}

func TestAuditSpillRebindResult(t *testing.T) {
	g := kernels.All()[6].Build() // ARF
	dp := machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 2, MoveLat: 1})
	sr, err := codegen.SpillRebind(g, dp, alternating(g.NumNodes()), 6)
	if err != nil {
		t.Fatalf("SpillRebind: %v", err)
	}
	if err := audit.Audit(sr.Result); err != nil {
		t.Errorf("audit rejects a spill-rebound result: %v", err)
	}
	if err := audit.AuditAlloc(sr.Result.Schedule, sr.Alloc); err != nil {
		t.Errorf("audit rejects the spill allocation: %v", err)
	}
}

// The full acceptance sweep — all five binders over every kernel ×
// Table 1/Table 2 datapath, every result audited — lives in
// internal/expt/audit_differential_test.go next to the table definitions
// (the expt runner imports audit, so it cannot be imported from here).

// TestAuditAcceptsAllBindersSmallRow exercises the five binders on one
// homogeneous row from the audit side, including min-cut.
func TestAuditAcceptsAllBindersSmallRow(t *testing.T) {
	g := kernels.All()[6].Build() // ARF
	dp := machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 2, MoveLat: 1})
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
			t.Fatalf("%s: %v", bd.name, err)
		}
		if err := audit.Audit(res); err != nil {
			t.Errorf("%s: %v", bd.name, err)
		}
	}
}
