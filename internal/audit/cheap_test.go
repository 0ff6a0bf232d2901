package audit_test

import (
	"slices"
	"strings"
	"testing"

	"vliwbind/internal/audit"
	"vliwbind/internal/audit/audittest"
	"vliwbind/internal/bind"
	"vliwbind/internal/codegen"
	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
)

// sameVerdict requires the direct check and the reference to accept or
// reject together, with the same text.
func sameVerdict(t *testing.T, name string, res *bind.Result) {
	t.Helper()
	got := audit.CheckBound(res, res.Datapath.NumClusters())
	want := refCheckBound(res)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Errorf("%s: direct check says %v, re-derivation %v", name, got, want)
	}
}

// TestCheckBoundMatchesReference holds the direct bound-graph check to
// BuildBound + sameGraph on the audit corpus, and on each result with
// one node rebound (the bound graph no longer matches the binding) or
// one bound-binding entry flipped.
func TestCheckBoundMatchesReference(t *testing.T) {
	cases, err := audittest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		res, dp := tc.Res, tc.Res.Datapath
		if err := audit.CheckBound(res, dp.NumClusters()); err != nil {
			t.Errorf("%s: %v", tc.Name, err)
		}
		sameVerdict(t, tc.Name, res)
		for id := 0; id < res.Graph.NumNodes(); id += 2 {
			n := res.Graph.Node(id)
			for c := 0; c < dp.NumClusters(); c++ {
				if c == res.Binding[id] || !dp.Supports(c, n.Op()) {
					continue
				}
				bad := *res
				bad.Binding = slices.Clone(res.Binding)
				bad.Binding[id] = c
				sameVerdict(t, tc.Name+" rebinding "+n.Name(), &bad)
				break
			}
		}
		for id := 0; id < res.Bound.NumNodes(); id += 5 {
			bad := *res
			bad.BoundBinding = slices.Clone(res.BoundBinding)
			bad.BoundBinding[id] = (bad.BoundBinding[id] + 1) % dp.NumClusters()
			sameVerdict(t, tc.Name+" bound binding of "+res.Bound.Node(id).Name(), &bad)
		}
	}
}

// TestAuditRejectsNonCanonicalMoves hands the audit bound graphs that
// differ from the canonical insertion only in their moves: each is
// rejected by the bound-graph check, naming the difference.
func TestAuditRejectsNonCanonicalMoves(t *testing.T) {
	g := crossGraph()
	res := mustEvaluate(t, g, "[1,1|1,1]", machine.Config{NumBuses: 1}, []int{0, 1})
	for _, tc := range []struct {
		name    string
		build   func(b *dfg.Builder, x, y dfg.Value)
		bb      []int
		mention string
	}{
		{"renamed move", func(b *dfg.Builder, x, y dfg.Value) {
			v0 := b.Named("v0", dfg.OpAdd, 0, x, y)
			t9 := b.NamedMove("t9", v0)
			b.Output(b.Named("v1", dfg.OpAdd, 0, t9, y))
		}, []int{0, 1, 1}, "node 1 is t9/move(imm 0) vs t1/move(imm 0)"},
		{"duplicated move", func(b *dfg.Builder, x, y dfg.Value) {
			v0 := b.Named("v0", dfg.OpAdd, 0, x, y)
			t1 := b.NamedMove("t1", v0)
			b.NamedMove("t2", v0)
			b.Output(b.Named("v1", dfg.OpAdd, 0, t1, y))
		}, []int{0, 1, 1, 1}, "4 nodes vs 3"},
		{"operand wired to its producer", func(b *dfg.Builder, x, y dfg.Value) {
			v0 := b.Named("v0", dfg.OpAdd, 0, x, y)
			b.NamedMove("t1", v0)
			b.Output(b.Named("v1", dfg.OpAdd, 0, v0, y))
		}, []int{0, 1, 1}, "node v1 operand 0 is v0 vs t1"},
	} {
		b := dfg.NewBuilder("cross")
		x, y := b.Input("x"), b.Input("y")
		tc.build(b, x, y)
		bad := *res
		bad.Bound, bad.BoundBinding = b.Graph(), tc.bb
		wantReject(t, tc.name, &bad, "bound graph differs from canonical transfer insertion: "+tc.mention)
		sameVerdict(t, tc.name, &bad)
	}
}

// TestAuditAllocRejectsStaleRead: a value read from a register another
// value has since overwritten is refused by the allocation replay.
func TestAuditAllocRejectsStaleRead(t *testing.T) {
	b := dfg.NewBuilder("live2")
	x, y := b.Input("x"), b.Input("y")
	va := b.Named("a", dfg.OpAdd, 0, x, y)
	vb := b.Named("b", dfg.OpSub, 0, x, y)
	b.Output(b.Named("c", dfg.OpAdd, 0, va, vb))
	res := mustEvaluate(t, b.Graph(), "[1,1]", machine.Config{NumBuses: 1}, []int{0, 0, 0})
	a, err := codegen.Allocate(res.Schedule, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Reg[vb.Node().ID()] = a.Reg[va.Node().ID()]
	err = audit.AuditAlloc(res.Schedule, a)
	if err == nil || !strings.Contains(err.Error(), "expecting node") {
		t.Errorf("stale read: got %v, want the replay's clobber error", err)
	}
}

// TestAuditAllocations caps one audit of DCT-DIT on [2,1|1,1]: every
// stage indexes by node ID instead of hashing, and no second bound
// graph is built.
func TestAuditAllocations(t *testing.T) {
	k, err := kernels.ByName("DCT-DIT")
	if err != nil {
		t.Fatal(err)
	}
	dp := machine.MustParse("[2,1|1,1]", machine.Config{NumBuses: 2, MoveLat: 1})
	res, err := bind.Bind(k.Build(), dp, bind.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var aerr error
	allocs := testing.AllocsPerRun(5, func() { aerr = audit.Audit(res) })
	if aerr != nil {
		t.Fatal(aerr)
	}
	if allocs > 150 {
		t.Errorf("one audit allocates %.0f objects, want at most 150", allocs)
	}
	t.Logf("one audit: %.0f allocations", allocs)
}
