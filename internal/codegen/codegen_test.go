package codegen

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"vliwbind/internal/bind"
	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/regpressure"
	"vliwbind/internal/sched"
)

func scheduleKernel(t testing.TB, name, dp string) *sched.Schedule {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bind.Bind(k.Build(), machine.MustParse(dp, machine.Config{}), bind.Options{Seeds: 1, MaxStretch: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

func TestAllocateAllKernels(t *testing.T) {
	for _, k := range kernels.All() {
		s := scheduleKernel(t, k.Name, "[2,1|2,1]")
		a, err := Allocate(s, 0)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if err := CheckAlloc(s, a); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestAllocateMatchesPressure(t *testing.T) {
	// Linear scan with single-cycle reuse slack must use at least the
	// max-live count and at most a couple more registers.
	s := scheduleKernel(t, "DCT-DIT", "[2,1|2,1]")
	a, err := Allocate(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := regpressure.Analyze(s)
	for c := range a.NumRegs {
		if a.NumRegs[c] < rep.MaxLive[c] {
			t.Errorf("cluster %d: %d registers below max-live %d", c, a.NumRegs[c], rep.MaxLive[c])
		}
		if a.NumRegs[c] > rep.MaxLive[c]+3 {
			t.Errorf("cluster %d: %d registers far above max-live %d", c, a.NumRegs[c], rep.MaxLive[c])
		}
	}
}

func TestAllocateRespectsCapacity(t *testing.T) {
	s := scheduleKernel(t, "DCT-DIT-2", "[2,1|2,1]")
	if _, err := Allocate(s, 2); err == nil {
		t.Error("2-register file accepted for a 96-op kernel")
	}
	if _, err := Allocate(s, 32); err != nil {
		t.Errorf("32-register file rejected: %v", err)
	}
}

func TestCheckAllocCatchesClobber(t *testing.T) {
	s := scheduleKernel(t, "ARF", "[2,1|2,1]")
	a, err := Allocate(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAlloc(s, a); err != nil {
		t.Fatal(err)
	}
	// Force two values with overlapping lifetimes into the same register.
	// The pair must be a provable clobber: the victim needs an actual
	// consumer read at or after the overwriter's write cycle (the live-out
	// extension in intervals() is not a read CheckAlloc replays), and the
	// writes must land in distinct cycles so their order is defined.
	lastRead := make([]int, s.Graph.NumNodes())
	for i := range lastRead {
		lastRead[i] = -1
	}
	// Only a read in the value's own cluster reads its register.
	read := func(id, cluster, cycle int) {
		if cluster == s.Cluster[id] && cycle > lastRead[id] {
			lastRead[id] = cycle
		}
	}
	for _, n := range s.Graph.Nodes() {
		if n.IsMove() {
			if src := n.TransferFor(); src != nil {
				read(src.ID(), s.Cluster[src.ID()], s.Start[n.ID()])
			}
			continue
		}
		for _, o := range n.Operands() {
			if o.IsNode() && o.Node().Op() != dfg.OpStore {
				read(o.Node().ID(), s.Cluster[n.ID()], s.Start[n.ID()])
			}
		}
	}
	ivs := intervals(s)
	var c0 []int // cluster 0's register-holding nodes by write cycle, then ID
	for _, n := range s.Graph.Nodes() {
		if s.Cluster[n.ID()] == 0 && n.Op() != dfg.OpStore {
			c0 = append(c0, n.ID())
		}
	}
	sort.SliceStable(c0, func(i, j int) bool { return ivs[c0[i]].start < ivs[c0[j]].start })
	var victim, overwriter int
	found := false
	for i := 0; i < len(c0) && !found; i++ {
		for j := i + 1; j < len(c0); j++ {
			v, w := c0[i], c0[j]
			if ivs[w].start > ivs[v].start && lastRead[v] >= ivs[w].start &&
				a.Reg[v] != a.Reg[w] {
				victim, overwriter, found = v, w, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no overlapping-lifetime pair with distinct registers in cluster 0")
	}
	a.Reg[victim] = a.Reg[overwriter]
	if err := CheckAlloc(s, a); err == nil {
		t.Error("CheckAlloc missed a forced clobber")
	}
}

func TestEmitListing(t *testing.T) {
	s := scheduleKernel(t, "ARF", "[2,1|2,1]")
	a, err := Allocate(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	asm := Emit(s, a)
	for _, want := range []string{"; ARF", "MULI", "ADD", "c0.r0", "#"} {
		if !strings.Contains(asm, want) {
			t.Errorf("listing missing %q:\n%s", want, asm)
		}
	}
	// One line per cycle plus the header.
	lines := strings.Count(strings.TrimSpace(asm), "\n")
	if lines != s.L {
		t.Errorf("listing has %d instruction lines, want %d", lines, s.L)
	}
}

func TestEmitShowsMoves(t *testing.T) {
	b := dfg.NewBuilder("mv")
	x, y := b.Input("x"), b.Input("y")
	v0 := b.Add(x, y)
	v1 := b.Add(v0, y)
	b.Output(v1)
	g := b.Graph()
	dp := machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1})
	res, err := bind.Evaluate(g, dp, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(res.Schedule, 0)
	if err != nil {
		t.Fatal(err)
	}
	asm := Emit(res.Schedule, a)
	if !strings.Contains(asm, "bus0: MV c1.r") || !strings.Contains(asm, "c0.r") {
		t.Errorf("move not rendered with cross-cluster registers:\n%s", asm)
	}
}

func TestQuickAllocationsAlwaysCheck(t *testing.T) {
	// Keystone property: for random graphs and random legal bindings,
	// linear-scan allocation always passes the clobber check.
	dp := machine.MustParse("[1,1|1,1]", machine.Config{})
	f := func(seed uint32, ops uint8, pick uint32) bool {
		g := kernels.Random(kernels.RandomConfig{Ops: int(ops%25) + 3, Seed: int64(seed)})
		bn := make([]int, g.NumNodes())
		rng := pick | 1
		for i := range bn {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			bn[i] = int(rng) & 1
		}
		res, err := bind.Evaluate(g, dp, bn)
		if err != nil {
			return false
		}
		a, err := Allocate(res.Schedule, 0)
		if err != nil {
			return false
		}
		return CheckAlloc(res.Schedule, a) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRegisterReuse(t *testing.T) {
	// A long chain must reuse a small constant number of registers, not
	// one per op.
	b := dfg.NewBuilder("chain")
	x, y := b.Input("x"), b.Input("y")
	v := b.Add(x, y)
	for i := 0; i < 20; i++ {
		v = b.Add(v, y)
	}
	b.Output(v)
	g := b.Graph()
	dp := machine.MustParse("[1,1]", machine.Config{NumBuses: 1})
	res, err := bind.Evaluate(g, dp, make([]int, g.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(res.Schedule, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRegs[0] > 3 {
		t.Errorf("chain uses %d registers, expected <= 3 with reuse", a.NumRegs[0])
	}
	if err := CheckAlloc(res.Schedule, a); err != nil {
		t.Error(err)
	}
}
