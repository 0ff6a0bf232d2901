package vliwsim

import (
	"strings"
	"testing"

	"vliwbind/internal/bind"
	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/sched"
)

func scheduleFor(t *testing.T, g *dfg.Graph, dp *machine.Datapath, binding []int) *sched.Schedule {
	t.Helper()
	res, err := bind.Evaluate(g, dp, binding)
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

func TestExecuteSimpleCrossCluster(t *testing.T) {
	b := dfg.NewBuilder("x")
	x, y := b.Input("x"), b.Input("y")
	v0 := b.Add(x, y)  // cluster 0
	v1 := b.Mul(v0, y) // cluster 1: needs a move
	b.Output(v1)
	g := b.Graph()
	dp := machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1})
	s := scheduleFor(t, g, dp, []int{0, 1})
	out, tr, err := Execute(s, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 15 {
		t.Errorf("out = %v, want [15]", out)
	}
	// add at 0, move at 1, mul at 2 -> 3 cycles.
	if tr.Cycles != 3 {
		t.Errorf("cycles = %d, want 3", tr.Cycles)
	}
	if len(tr.At(0)) != 1 || tr.At(0)[0].Node.Op() != dfg.OpAdd {
		t.Errorf("cycle 0 events wrong: %+v", tr.At(0))
	}
}

func TestExecuteAllKernelsAllAlgorithms(t *testing.T) {
	// The full stack: every kernel, bound by B-ITER, scheduled,
	// executed, and compared to the reference evaluation.
	dp := machine.MustParse("[2,1|1,1]", machine.Config{})
	for _, k := range kernels.All() {
		g := k.Build()
		res, err := bind.Bind(g, dp, bind.Options{Seeds: 1, MaxStretch: -1})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		in := make([]float64, g.NumInputs())
		for i := range in {
			in[i] = float64((i*13)%9) - 4
		}
		// Outputs of the bound graph mirror the original's.
		if err := Verify(res.Schedule, in); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestExecuteDetectsMissingTransfer(t *testing.T) {
	// Hand-build an illegal schedule: consumer in cluster 1 but the
	// value never moved there. sched.List won't produce this, so forge
	// the cluster assignment afterwards.
	b := dfg.NewBuilder("bad")
	x, y := b.Input("x"), b.Input("y")
	v0 := b.Add(x, y)
	v1 := b.Add(v0, y)
	b.Output(v1)
	g := b.Graph()
	dp := machine.MustParse("[1,1|1,1]", machine.Config{})
	s := scheduleFor(t, g, dp, []int{0, 0})
	s.Cluster[v1.Node().ID()] = 1 // corrupt: v1 now claims cluster 1
	if err := Verify(s, []float64{1, 2}); err == nil {
		t.Error("missing transfer not detected")
	} else if !strings.Contains(err.Error(), "never arrives") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestExecuteDetectsEarlyIssue(t *testing.T) {
	b := dfg.NewBuilder("early")
	x, y := b.Input("x"), b.Input("y")
	v0 := b.Add(x, y)
	v1 := b.Add(v0, y)
	b.Output(v1)
	g := b.Graph()
	dp := machine.MustParse("[1,1]", machine.Config{NumBuses: 1})
	s := scheduleFor(t, g, dp, []int{0, 0})
	s.Start[v1.Node().ID()] = 0 // issue before operand ready
	if _, _, err := Execute(s, []float64{1, 2}); err == nil {
		t.Error("early issue not detected")
	}
}

func TestExecuteDetectsOversubscription(t *testing.T) {
	b := dfg.NewBuilder("over")
	x, y := b.Input("x"), b.Input("y")
	a1 := b.Add(x, y)
	a2 := b.Sub(x, y)
	b.Output(a1)
	b.Output(a2)
	g := b.Graph()
	dp := machine.MustParse("[1,1]", machine.Config{NumBuses: 1})
	s := scheduleFor(t, g, dp, []int{0, 0})
	// Force both adds onto unit 0 at cycle 0.
	s.Start[a1.Node().ID()] = 0
	s.Start[a2.Node().ID()] = 0
	s.Unit[a1.Node().ID()] = 0
	s.Unit[a2.Node().ID()] = 0
	if _, _, err := Execute(s, []float64{1, 2}); err == nil {
		t.Error("unit oversubscription not detected")
	}
}

func TestExecuteDetectsWrongClusterForOp(t *testing.T) {
	b := dfg.NewBuilder("wc")
	x := b.Input("x")
	m := b.Mul(x, x)
	b.Output(m)
	g := b.Graph()
	dp := machine.MustParse("[1,0|1,1]", machine.Config{})
	s := scheduleFor(t, g, dp, []int{1})
	s.Cluster[m.Node().ID()] = 0 // no multiplier there
	if _, _, err := Execute(s, []float64{3}); err == nil {
		t.Error("op in unsupporting cluster not detected")
	}
}

func TestExecuteInputCount(t *testing.T) {
	b := dfg.NewBuilder("in")
	x := b.Input("x")
	b.Output(b.Neg(x))
	g := b.Graph()
	dp := machine.MustParse("[1,1]", machine.Config{NumBuses: 1})
	s := scheduleFor(t, g, dp, []int{0})
	if _, _, err := Execute(s, nil); err == nil {
		t.Error("wrong input count accepted")
	}
}

func TestMoveLatencyRespected(t *testing.T) {
	// lat(move)=3: consumer can only start 3 cycles after the move.
	b := dfg.NewBuilder("ml")
	x, y := b.Input("x"), b.Input("y")
	v0 := b.Add(x, y)
	v1 := b.Add(v0, y)
	b.Output(v1)
	g := b.Graph()
	dp := machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1, MoveLat: 3})
	s := scheduleFor(t, g, dp, []int{0, 1})
	out, tr, err := Execute(s, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 {
		t.Errorf("out = %v, want 5", out[0])
	}
	// add(1) + move(3) + add(1): 5 cycles.
	if tr.Cycles != 5 {
		t.Errorf("cycles = %d, want 5", tr.Cycles)
	}
}

func TestTraceEventsComplete(t *testing.T) {
	g := kernels.ARF()
	dp := machine.MustParse("[1,1|1,1]", machine.Config{})
	res, err := bind.Bind(g, dp, bind.Options{Seeds: 1, MaxStretch: -1})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, g.NumInputs())
	_, tr, err := Execute(res.Schedule, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != res.Bound.NumNodes() {
		t.Errorf("trace has %d events for %d nodes", len(tr.Events), res.Bound.NumNodes())
	}
}

// TestMultiHopRingSchedulesExecute pins the simulator's per-cycle
// channel bookkeeping. On these four-cluster rings B-INIT and B-ITER
// both produce legal schedules in which one move's second hop books a
// channel a cycle ahead, while another move issued in the same cycle
// uses that channel first (on the first machine: hop 1 of t5 holds
// channel 2 in cycle 10, hop 0 of t13 in cycle 9). sched.Check and
// Execute must both accept them, and the outputs must match the
// reference evaluation.
func TestMultiHopRingSchedulesExecute(t *testing.T) {
	k, err := kernels.ByName("DCT-DIT-2")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	in := make([]float64, g.NumInputs())
	for i := range in {
		in[i] = float64((i*13)%9) - 4
	}
	for _, spec := range []string{"[2,1|1,0|1,0|0,1]@ring:1", "[2,0|2,0|0,1|0,1]@ring:1"} {
		dp, err := machine.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []struct {
			name string
			run  func() (*bind.Result, error)
		}{
			{"b-init", func() (*bind.Result, error) { return bind.Initial(g, dp, bind.Options{}) }},
			{"b-iter", func() (*bind.Result, error) { return bind.Bind(g, dp, bind.Options{}) }},
		} {
			res, err := algo.run()
			if err != nil {
				t.Fatalf("%s %s: %v", spec, algo.name, err)
			}
			if err := sched.Check(res.Schedule); err != nil {
				t.Fatalf("%s %s: schedule illegal: %v", spec, algo.name, err)
			}
			if err := Verify(res.Schedule, in); err != nil {
				t.Errorf("%s %s: %v", spec, algo.name, err)
			}
		}
	}
}
