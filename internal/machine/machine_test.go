package machine

import (
	"fmt"
	"testing"

	"vliwbind/internal/dfg"
)

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{"[1,1|1,1]", "[2,1|2,1]", "[3,1|2,2|1,3]", "[1,1|1,1|1,1|1,1]", "[2,2|2,1|2,2|3,1|1,1]"} {
		d, err := Parse(spec, Config{})
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := d.String(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
	}
}

func TestParseUnbracketed(t *testing.T) {
	d, err := Parse("2,1|1,1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "[2,1|1,1]" {
		t.Errorf("got %q", d.String())
	}
	if d.NumClusters() != 2 {
		t.Errorf("NumClusters = %d", d.NumClusters())
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{"", "[]", "[a,b]", "[1]", "[1,2,3]", "[-1,1]", "[1,1|]"} {
		if _, err := Parse(spec, Config{}); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad spec did not panic")
		}
	}()
	MustParse("bogus", Config{})
}

func TestDefaults(t *testing.T) {
	d := MustParse("[1,1|1,1]", Config{})
	if d.NumBuses() != 2 {
		t.Errorf("default NumBuses = %d, want 2", d.NumBuses())
	}
	if d.MoveLat() != 1 || d.MoveDII() != 1 {
		t.Errorf("default move lat/dii = %d/%d, want 1/1", d.MoveLat(), d.MoveDII())
	}
	for _, op := range []dfg.OpType{dfg.OpAdd, dfg.OpMul, dfg.OpMove} {
		if d.Latency(op) != 1 || d.DII(op) != 1 {
			t.Errorf("default lat/dii for %s = %d/%d, want 1/1", op, d.Latency(op), d.DII(op))
		}
	}
}

func TestCounts(t *testing.T) {
	d := MustParse("[3,1|2,2|1,3]", Config{NumBuses: 2})
	if d.NumClusters() != 3 {
		t.Fatalf("NumClusters = %d", d.NumClusters())
	}
	cases := []struct {
		c    int
		t    dfg.FUType
		want int
	}{
		{0, dfg.FUALU, 3}, {0, dfg.FUMul, 1},
		{1, dfg.FUALU, 2}, {1, dfg.FUMul, 2},
		{2, dfg.FUALU, 1}, {2, dfg.FUMul, 3},
		{0, dfg.FUBus, 2}, {2, dfg.FUBus, 2},
	}
	for _, tc := range cases {
		if got := d.NumFU(tc.c, tc.t); got != tc.want {
			t.Errorf("NumFU(%d,%s) = %d, want %d", tc.c, tc.t, got, tc.want)
		}
	}
	if d.TotalFU(dfg.FUALU) != 6 || d.TotalFU(dfg.FUMul) != 6 || d.TotalFU(dfg.FUBus) != 2 {
		t.Errorf("TotalFU wrong: alu=%d mul=%d bus=%d",
			d.TotalFU(dfg.FUALU), d.TotalFU(dfg.FUMul), d.TotalFU(dfg.FUBus))
	}
}

func TestTargetSet(t *testing.T) {
	var c0, c1 Cluster
	c0.NumFU[dfg.FUALU] = 1 // ALU-only cluster
	c1.NumFU[dfg.FUALU] = 1
	c1.NumFU[dfg.FUMul] = 1
	d, err := New([]Cluster{c0, c1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ts := d.TargetSet(dfg.OpAdd); len(ts) != 2 {
		t.Errorf("TargetSet(add) = %v, want both clusters", ts)
	}
	if ts := d.TargetSet(dfg.OpMul); len(ts) != 1 || ts[0] != 1 {
		t.Errorf("TargetSet(mul) = %v, want [1]", ts)
	}
	if d.Supports(0, dfg.OpMul) {
		t.Error("cluster 0 should not support mul")
	}
	if !d.Supports(0, dfg.OpSub) {
		t.Error("cluster 0 should support sub")
	}
}

// TestTargetSetPrecomputed pins TargetSet to the set Supports derives,
// for every operation type, on each interconnect and again after
// WithBuses, and requires that it allocates nothing and hands out
// slices an append cannot write through.
func TestTargetSetPrecomputed(t *testing.T) {
	for _, cfg := range []Config{{}, {Topology: TopoRing, LinkCap: 1}, {Topology: TopoP2P}} {
		base := MustParse("[1,0|1,1|2,1]", cfg)
		for _, d := range []*Datapath{base, base.WithBuses(3)} {
			for op := dfg.OpInvalid; op <= dfg.OpLoad; op++ {
				var want []int
				for c := 0; c < d.NumClusters(); c++ {
					if d.Supports(c, op) {
						want = append(want, c)
					}
				}
				ts := d.TargetSet(op)
				if fmt.Sprint(ts) != fmt.Sprint(want) {
					t.Errorf("%s %s: TargetSet(%s) = %v, want %v", cfg.Topology, d, op, ts, want)
				}
				if cap(ts) != len(ts) {
					t.Errorf("%s %s: TargetSet(%s) has spare capacity %d", cfg.Topology, d, op, cap(ts)-len(ts))
				}
				if n := testing.AllocsPerRun(10, func() { _ = d.TargetSet(op) }); n != 0 {
					t.Errorf("%s %s: TargetSet(%s) allocates %.0f objects", cfg.Topology, d, op, n)
				}
			}
		}
	}
}

func TestTiming(t *testing.T) {
	d := MustParse("[1,1]", Config{
		NumBuses: 1,
		MoveLat:  2,
		MoveDII:  1,
		Mul:      ResourceSpec{Lat: 3, DII: 1},
		ALU:      ResourceSpec{Lat: 1, DII: 1},
	})
	if d.Latency(dfg.OpMul) != 3 || d.DII(dfg.OpMul) != 1 {
		t.Errorf("mul lat/dii = %d/%d", d.Latency(dfg.OpMul), d.DII(dfg.OpMul))
	}
	if d.MoveLat() != 2 {
		t.Errorf("MoveLat = %d", d.MoveLat())
	}
	if d.Latency(dfg.OpMove) != 2 {
		t.Errorf("Latency(move) = %d", d.Latency(dfg.OpMove))
	}
}

func TestUnpipelinedDefaultDII(t *testing.T) {
	d := MustParse("[1,1]", Config{Mul: ResourceSpec{Lat: 2}})
	if d.DII(dfg.OpMul) != 2 {
		t.Errorf("unpipelined mul dii = %d, want lat (2)", d.DII(dfg.OpMul))
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("New(nil) succeeded")
	}
	var empty Cluster
	if _, err := New([]Cluster{empty}, Config{}); err == nil {
		t.Error("cluster with no FUs accepted")
	}
	var ok Cluster
	ok.NumFU[dfg.FUALU] = 1
	if _, err := New([]Cluster{ok}, Config{NumBuses: -1}); err == nil {
		t.Error("negative bus count accepted")
	}
	if _, err := New([]Cluster{ok}, Config{Mul: ResourceSpec{Lat: 1, DII: 2}}); err == nil {
		t.Error("dii > lat accepted")
	}
	var neg Cluster
	neg.NumFU[dfg.FUALU] = -1
	if _, err := New([]Cluster{neg}, Config{}); err == nil {
		t.Error("negative FU count accepted")
	}
}

func TestCanRun(t *testing.T) {
	b := dfg.NewBuilder("g")
	x, y := b.Input("x"), b.Input("y")
	v := b.Mul(x, y)
	b.Output(v)
	g := b.Graph()

	var aluOnly Cluster
	aluOnly.NumFU[dfg.FUALU] = 1
	d, err := New([]Cluster{aluOnly}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CanRun(g); err == nil {
		t.Error("CanRun accepted a mul on an ALU-only datapath")
	}
	d2 := MustParse("[1,1]", Config{})
	if err := d2.CanRun(g); err != nil {
		t.Errorf("CanRun rejected a runnable graph: %v", err)
	}
}

func TestLatencyFnCompatibility(t *testing.T) {
	d := MustParse("[1,1]", Config{})
	var fn dfg.LatencyFn = d.Latency
	if fn(dfg.OpAdd) != 1 {
		t.Error("Latency not usable as dfg.LatencyFn")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range Presets() {
		d, err := NewPreset(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if d.NumClusters() < 2 {
			t.Errorf("%s: %d clusters", name, d.NumClusters())
		}
	}
	if _, err := NewPreset("bogus"); err == nil {
		t.Error("unknown preset accepted")
	}
	ti, _ := NewPreset(PresetTIC6201)
	if ti.String() != "[2,1|2,1]" || ti.NumBuses() != 2 {
		t.Errorf("C6201 preset wrong: %s buses=%d", ti, ti.NumBuses())
	}
	lx, _ := NewPreset(PresetLx)
	if lx.Latency(dfg.OpMul) != 2 || lx.DII(dfg.OpMul) != 1 {
		t.Errorf("Lx multiplier timing wrong: lat=%d dii=%d", lx.Latency(dfg.OpMul), lx.DII(dfg.OpMul))
	}
}

func TestWithBuses(t *testing.T) {
	d := MustParse("[1,1|1,1]", Config{NumBuses: 2})
	r := d.WithBuses(16)
	if r.NumBuses() != 16 || d.NumBuses() != 2 {
		t.Errorf("WithBuses wrong: relaxed=%d original=%d", r.NumBuses(), d.NumBuses())
	}
	if r.NumClusters() != d.NumClusters() {
		t.Error("WithBuses changed cluster structure")
	}
	if d.WithBuses(0).NumBuses() != 1 {
		t.Error("WithBuses(0) should clamp to 1")
	}
}
