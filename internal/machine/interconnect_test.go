package machine

import (
	"reflect"
	"testing"

	"vliwbind/internal/dfg"
)

func TestSharedBusIsDefault(t *testing.T) {
	d := MustParse("[1,1|1,1]", Config{})
	if d.Topology() != TopoBus || d.NumLinks() != 1 || d.NumBuses() != 2 {
		t.Fatalf("default interconnect = %s links=%d chans=%d, want bus/1/2",
			d.Topology(), d.NumLinks(), d.NumBuses())
	}
	if d.MaxHops() != 1 || d.MultiHop() {
		t.Errorf("shared bus MaxHops = %d MultiHop = %v, want 1/false", d.MaxHops(), d.MultiHop())
	}
	if got := d.Route(0, 1); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("bus Route(0,1) = %v, want [0]", got)
	}
	if d.Route(1, 1) != nil {
		t.Error("Route(c,c) should be nil")
	}
	if d.RouteCost(0, 1) != d.MoveLat() || d.RouteCost(0, 0) != 0 {
		t.Errorf("bus RouteCost = %d/%d, want MoveLat/0", d.RouteCost(0, 1), d.RouteCost(0, 0))
	}
}

func TestPointToPoint(t *testing.T) {
	d := MustParse("[1,1|1,1|1,1]", Config{Topology: TopoP2P, LinkCap: 2})
	if d.NumLinks() != 6 || d.NumBuses() != 12 {
		t.Fatalf("p2p links=%d chans=%d, want 6/12", d.NumLinks(), d.NumBuses())
	}
	if d.MaxHops() != 1 {
		t.Errorf("p2p MaxHops = %d, want 1", d.MaxHops())
	}
	seen := make(map[int]bool)
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			r := d.Route(src, dst)
			if src == dst {
				if r != nil {
					t.Errorf("Route(%d,%d) = %v, want nil", src, dst, r)
				}
				continue
			}
			if len(r) != 1 {
				t.Fatalf("Route(%d,%d) = %v, want one dedicated hop", src, dst, r)
			}
			if seen[r[0]] {
				t.Errorf("link %d serves two cluster pairs", r[0])
			}
			seen[r[0]] = true
			if d.LinkCapacity(r[0]) != 2 {
				t.Errorf("link %d capacity = %d, want 2", r[0], d.LinkCapacity(r[0]))
			}
		}
	}
}

func TestRingRouting(t *testing.T) {
	// Five clusters: enough for a two-hop shortest path in each
	// direction with a clockwise tie never arising.
	d := MustParse("[1,1|1,1|1,1|1,1|1,1]", Config{Topology: TopoRing})
	if d.NumLinks() != 10 || d.NumBuses() != 10 {
		t.Fatalf("ring links=%d chans=%d, want 10/10", d.NumLinks(), d.NumBuses())
	}
	if d.MaxHops() != 2 || !d.MultiHop() {
		t.Errorf("5-ring MaxHops = %d, want 2", d.MaxHops())
	}
	cases := []struct {
		src, dst int
		want     []int
	}{
		{0, 1, []int{0}},    // one clockwise hop
		{0, 2, []int{0, 1}}, // two clockwise hops
		{0, 4, []int{5}},    // one counter-clockwise hop (link ids 5..9)
		{0, 3, []int{5, 9}}, // two counter-clockwise hops: c0>c4, c4>c3
		{3, 0, []int{3, 4}}, // wraps clockwise through c4
		{2, 0, []int{7, 6}}, // counter-clockwise: c2>c1, c1>c0
	}
	for _, tc := range cases {
		if got := d.Route(tc.src, tc.dst); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Route(%d,%d) = %v, want %v", tc.src, tc.dst, got, tc.want)
		}
		if cost := d.RouteCost(tc.src, tc.dst); cost != len(tc.want)*d.MoveLat() {
			t.Errorf("RouteCost(%d,%d) = %d, want %d", tc.src, tc.dst, cost, len(tc.want))
		}
	}
	// Clockwise ties: on a 4-ring, the 2-hop opposite pair goes clockwise.
	d4 := MustParse("[1,1|1,1|1,1|1,1]", Config{Topology: TopoRing})
	if got := d4.Route(0, 2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("4-ring Route(0,2) = %v, want clockwise [0 1]", got)
	}
	// Three clusters or fewer stay single-hop: every move there takes
	// the evaluator's one-pool fast path.
	d3 := MustParse("[1,1|1,1|1,1]", Config{Topology: TopoRing})
	if d3.MaxHops() != 1 || d3.MultiHop() {
		t.Errorf("3-ring MaxHops = %d, want 1", d3.MaxHops())
	}
	d2 := MustParse("[1,1|1,1]", Config{Topology: TopoRing})
	if d2.NumLinks() != 2 || d2.MaxHops() != 1 {
		t.Errorf("2-ring links=%d hops=%d, want 2/1", d2.NumLinks(), d2.MaxHops())
	}
}

func TestChannelLayout(t *testing.T) {
	d := MustParse("[1,1|1,1|1,1]", Config{Topology: TopoP2P, LinkCap: 2})
	off := 0
	for l := 0; l < d.NumLinks(); l++ {
		if d.LinkOffset(l) != off {
			t.Errorf("LinkOffset(%d) = %d, want %d", l, d.LinkOffset(l), off)
		}
		for u := off; u < off+d.LinkCapacity(l); u++ {
			if d.LinkOfChannel(u) != l {
				t.Errorf("LinkOfChannel(%d) = %d, want %d", u, d.LinkOfChannel(u), l)
			}
		}
		off += d.LinkCapacity(l)
	}
	if d.LinkOfChannel(off) != -1 {
		t.Error("LinkOfChannel past the last channel should be -1")
	}
}

// TestNoInterconnect pins the explicitly bus-less machine: NumBuses is
// really zero (the Config default of 2 must not leak through), routes
// do not exist, and CanRun rejects graphs with moves — the guard that
// was dead code while zero buses were unreachable.
func TestNoInterconnect(t *testing.T) {
	d := MustParse("[2,1]", Config{Topology: TopoNone})
	if d.NumBuses() != 0 || d.NumLinks() != 0 || d.MaxHops() != 0 {
		t.Fatalf("none machine: chans=%d links=%d hops=%d, want all zero",
			d.NumBuses(), d.NumLinks(), d.MaxHops())
	}
	multi := MustParse("[2,1|1,1]", Config{Topology: TopoNone})
	if multi.Route(0, 1) != nil || multi.RouteCost(0, 1) != -1 {
		t.Errorf("none machine routes: %v cost %d, want nil/-1",
			multi.Route(0, 1), multi.RouteCost(0, 1))
	}

	b := dfg.NewBuilder("m")
	x := b.Input("x")
	y := b.Input("y")
	b.Output(b.Move(b.Add(x, y)))
	if err := multi.CanRun(b.Graph()); err == nil {
		t.Error("CanRun accepted moves on a machine without interconnect")
	}
	// The same graph without moves runs fine.
	b2 := dfg.NewBuilder("m2")
	x2 := b2.Input("x")
	b2.Output(b2.Add(x2, x2))
	if err := d.CanRun(b2.Graph()); err != nil {
		t.Errorf("CanRun rejected a move-free graph: %v", err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"[1,1|1,1]@bus:2",
		"[2,1|1,1]@bus:3@move:2,1",
		"[1,1|1,1|1,1]@ring:1",
		"[1,1|1,1|1,1|1,1]@ring:2@move:1,1",
		"[2,1|1,1]@p2p:1",
		"[2,2|1,1|2,1]@p2p:2@move:3,2",
		"[2,1]@none",
	}
	for _, s := range specs {
		d, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		got := d.SpecString()
		d2, err := ParseSpec(got)
		if err != nil {
			t.Fatalf("ParseSpec(SpecString(%q) = %q): %v", s, got, err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Errorf("round trip of %q changed the machine: %q", s, got)
		}
		// The emitted form is canonical: re-emitting is a fixed point.
		if d2.SpecString() != got {
			t.Errorf("SpecString not canonical: %q -> %q", got, d2.SpecString())
		}
	}
	// String() alone loses the interconnect; SpecString must not.
	d := MustParse("[2,1|1,1]", Config{NumBuses: 3, MoveLat: 2})
	if rt, err := ParseSpec(d.SpecString()); err != nil || rt.NumBuses() != 3 || rt.MoveLat() != 2 {
		t.Errorf("SpecString %q lost configuration (err %v)", d.SpecString(), err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"[1,1|1,1]@mesh",     // unknown topology
		"[1,1|1,1]@bus:0",    // capacity below 1
		"[1,1|1,1]@ring:-1",  // negative capacity
		"[1,1|1,1]@move",     // move without timing
		"[1,1|1,1]@move:0",   // latency below 1
		"[1,1|1,1]@move:1,0", // dii below 1
		"[1,1|1,1]@bus:x",    // non-numeric capacity
		"@bus:2",             // no clusters
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", s)
		}
	}
}

func TestWithBusesTopologies(t *testing.T) {
	ring := MustParse("[1,1|1,1|1,1]", Config{Topology: TopoRing})
	relaxed := ring.WithBuses(10)
	if relaxed.Topology() != TopoRing {
		t.Errorf("WithBuses changed topology to %s", relaxed.Topology())
	}
	if relaxed.LinkCapacity(0) != 10 {
		t.Errorf("relaxed ring link capacity = %d, want 10", relaxed.LinkCapacity(0))
	}
	if ring.LinkCapacity(0) != 1 {
		t.Error("WithBuses mutated the original")
	}
	none := MustParse("[2,1]", Config{Topology: TopoNone})
	if none.WithBuses(4).NumBuses() != 0 {
		t.Error("WithBuses on TopoNone should stay without links")
	}
}
