package sched

import (
	"reflect"
	"strings"
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
)

// moveGraph builds v0 (cluster a) → move → v1 (cluster b) plus bindings.
func moveGraph(t *testing.T) (*dfg.Graph, *dfg.Node) {
	t.Helper()
	b := dfg.NewBuilder("mv")
	x, y := b.Input("x"), b.Input("y")
	v0 := b.Named("v0", dfg.OpAdd, 0, x, y)
	m := b.Move(v0)
	b.Output(b.Named("v1", dfg.OpAdd, 0, m, y))
	return b.Graph(), m.Node()
}

func TestRingMultiHopSchedule(t *testing.T) {
	g, mn := moveGraph(t)
	dp := machine.MustParse("[1,1|1,1|1,1|1,1]", machine.Config{Topology: machine.TopoRing})
	s := mustList(t, g, dp, []int{0, 2, 2}) // v0 in c0, value lands in c2: two clockwise hops
	if got := s.Finish(mn) - s.Start[mn.ID()]; got != 2*dp.MoveLat() {
		t.Errorf("two-hop move latency = %d, want %d", got, 2*dp.MoveLat())
	}
	if s.HopUnits == nil || len(s.HopUnits[mn.ID()]) != 2 {
		t.Fatalf("HopUnits for the two-hop move = %v, want two channels", s.HopUnits)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(s.HopUnits[mn.ID()], want) {
		t.Errorf("hop channels = %v, want %v (links c0>c1 then c1>c2)", s.HopUnits[mn.ID()], want)
	}
	if s.Unit[mn.ID()] != s.HopUnits[mn.ID()][0] {
		t.Errorf("Unit %d != first hop channel %d", s.Unit[mn.ID()], s.HopUnits[mn.ID()][0])
	}
	if s.L != 4 { // v0 at 0, hops at 1 and 2, v1 at 3
		t.Errorf("L = %d, want 4", s.L)
	}
	// The Gantt chart shows each hop on its own link row.
	chart := Gantt(s)
	if !strings.Contains(chart, "c0>c1") || !strings.Contains(chart, "c1>c2") {
		t.Errorf("Gantt missing per-link rows:\n%s", chart)
	}
}

// TestP2PDedicatedLinks pins the quality win point-to-point buys: two
// opposite-direction transfers that serialize on a single shared bus run
// in the same cycle on dedicated links.
func TestP2PDedicatedLinks(t *testing.T) {
	b := dfg.NewBuilder("x2")
	x, y := b.Input("x"), b.Input("y")
	v0 := b.Named("v0", dfg.OpAdd, 0, x, y)
	w0 := b.Named("w0", dfg.OpAdd, 0, x, y)
	m0, m1 := b.Move(v0), b.Move(w0)
	b.Output(b.Named("v1", dfg.OpAdd, 0, m0, y))
	b.Output(b.Named("w1", dfg.OpAdd, 0, m1, y))
	g := b.Graph()
	// Node order v0, w0, m0, m1, v1, w1: v0's value crosses c0→c1 while
	// w0's crosses c1→c0.
	binding := []int{0, 1, 1, 0, 1, 0}

	bus := machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1})
	p2p := machine.MustParse("[1,1|1,1]", machine.Config{Topology: machine.TopoP2P, LinkCap: 1})
	sBus := mustList(t, g, bus, binding)
	sP2P := mustList(t, g, p2p, binding)
	if sBus.Start[m0.Node().ID()] == sBus.Start[m1.Node().ID()] {
		t.Error("one shared bus channel let both moves issue together")
	}
	if sP2P.Start[m0.Node().ID()] != sP2P.Start[m1.Node().ID()] {
		t.Error("dedicated p2p links still serialized opposite-direction moves")
	}
	if sP2P.L >= sBus.L {
		t.Errorf("p2p L = %d not better than bus L = %d", sP2P.L, sBus.L)
	}
}

func TestRingLinkContention(t *testing.T) {
	// Two same-direction transfers on a capacity-1 ring link serialize;
	// doubling the link capacity lets them share the cycle.
	b := dfg.NewBuilder("r2")
	x, y := b.Input("x"), b.Input("y")
	v0 := b.Named("v0", dfg.OpAdd, 0, x, y)
	w0 := b.Named("w0", dfg.OpAdd, 0, x, y)
	m0, m1 := b.Move(v0), b.Move(w0)
	b.Output(b.Named("v1", dfg.OpAdd, 0, m0, y))
	b.Output(b.Named("w1", dfg.OpAdd, 0, m1, y))
	g := b.Graph()
	binding := []int{0, 0, 1, 1, 1, 1}

	ring1 := machine.MustParse("[2,1|2,1|1,1]", machine.Config{Topology: machine.TopoRing, LinkCap: 1})
	ring2 := machine.MustParse("[2,1|2,1|1,1]", machine.Config{Topology: machine.TopoRing, LinkCap: 2})
	s1 := mustList(t, g, ring1, binding)
	s2 := mustList(t, g, ring2, binding)
	if s1.Start[m0.Node().ID()] == s1.Start[m1.Node().ID()] {
		t.Error("capacity-1 ring link carried two transfers at once")
	}
	if s2.Start[m0.Node().ID()] != s2.Start[m1.Node().ID()] {
		t.Error("capacity-2 ring link serialized transfers needlessly")
	}
}

// TestNoInterconnectUnschedulable exercises the formerly unreachable
// zero-bus guard: a machine built with Topology "none" really has no
// channels, so any move must be rejected, while move-free graphs
// schedule normally.
func TestNoInterconnectUnschedulable(t *testing.T) {
	g, _ := moveGraph(t)
	dp := machine.MustParse("[1,1|1,1]", machine.Config{Topology: machine.TopoNone})
	if _, err := List(g, dp, []int{0, 1, 1}); err == nil || !strings.Contains(err.Error(), "no interconnect") {
		t.Errorf("List on a bus-less machine: err = %v, want no-interconnect error", err)
	}
	plain := chainGraph(3)
	if _, err := List(plain, dp, zeros(plain.NumNodes())); err != nil {
		t.Errorf("move-free graph failed on a bus-less machine: %v", err)
	}
}

// TestUnroutableMove pins the error when a binding demands a transfer the
// topology cannot carry at all (cross-cluster on "none").
func TestUnroutableMove(t *testing.T) {
	g, _ := moveGraph(t)
	dp := machine.MustParse("[1,1|1,1]", machine.Config{Topology: machine.TopoNone})
	_, err := List(g, dp, []int{0, 1, 1})
	if err == nil {
		t.Fatal("unroutable move scheduled")
	}
}
