package codegen_test

import (
	"slices"
	"testing"

	"vliwbind/internal/audit/audittest"
	"vliwbind/internal/codegen"
	"vliwbind/internal/dfg"
	"vliwbind/internal/sched"
)

// sameAlloc requires the node-indexed allocation to assign every value
// copy the register the reference assigned it, with equal file sizes.
func sameAlloc(t *testing.T, name string, s *sched.Schedule, got *codegen.Alloc, want *refAlloc) {
	t.Helper()
	if !slices.Equal(got.NumRegs, want.NumRegs) {
		t.Errorf("%s: NumRegs %v, reference %v", name, got.NumRegs, want.NumRegs)
	}
	copies := 0
	for _, n := range s.Graph.Nodes() {
		if n.Op() == dfg.OpStore {
			if got.Reg[n.ID()] != -1 {
				t.Errorf("%s: store %s holds register %d, want -1", name, n.Name(), got.Reg[n.ID()])
			}
			continue
		}
		copies++
		r, ok := want.Reg[refKey{n.ID(), s.Cluster[n.ID()]}]
		if !ok || got.Reg[n.ID()] != r {
			t.Errorf("%s: %s in c%d holds r%d, reference r%d (present %v)", name, n.Name(), s.Cluster[n.ID()], got.Reg[n.ID()], r, ok)
		}
	}
	if len(want.Reg) != copies {
		t.Errorf("%s: reference allocated %d copies, node-indexed form %d", name, len(want.Reg), copies)
	}
}

// TestAllocationMatchesReference holds Allocate, CheckAlloc and Emit to
// the map-based versions they replaced on the audit corpus: the same
// register for every copy at unbounded and at the tightest bounded file,
// the same refusal one register below it, the same listing, and the same
// verdict, error text included, on allocations forced to share a
// register.
func TestAllocationMatchesReference(t *testing.T) {
	cases, err := audittest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		s := tc.Res.Schedule
		want, err := refAllocate(s, 0)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.Name, err)
		}
		got, err := codegen.Allocate(s, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		sameAlloc(t, tc.Name, s, got, want)
		if g, w := codegen.Emit(s, got), refEmit(s, want); g != w {
			t.Errorf("%s: listing differs:\n%s\nreference:\n%s", tc.Name, g, w)
		}
		if err := codegen.CheckAlloc(s, got); err != nil {
			t.Errorf("%s: %v", tc.Name, err)
		}

		tight := slices.Max(want.NumRegs)
		wantB, err := refAllocate(s, tight)
		if err != nil {
			t.Fatalf("%s: reference at %d registers: %v", tc.Name, tight, err)
		}
		gotB, err := codegen.Allocate(s, tight)
		if err != nil {
			t.Fatalf("%s: at %d registers: %v", tc.Name, tight, err)
		}
		sameAlloc(t, tc.Name+" bounded", s, gotB, wantB)
		if tight > 1 {
			_, werr := refAllocate(s, tight-1)
			_, gerr := codegen.Allocate(s, tight-1)
			if werr == nil || gerr == nil {
				t.Errorf("%s: at %d registers: error %v, reference %v", tc.Name, tight-1, gerr, werr)
			} else if overflowing := countEq(want.NumRegs, tight); overflowing == 1 && gerr.Error() != werr.Error() {
				// With one overflowing cluster the reference's map
				// order cannot matter, so the texts must agree.
				t.Errorf("%s: error %q, reference %q", tc.Name, gerr, werr)
			}
		}

		// Force pairs of same-cluster copies into one register, in both
		// forms, and require the two replays to agree.
		ids := regHolders(s)
		for i := 0; i+1 < len(ids) && i < 24; i++ {
			v, w := ids[i], ids[i+1]
			if s.Cluster[v] != s.Cluster[w] || got.Reg[v] == got.Reg[w] {
				continue
			}
			gm := &codegen.Alloc{Reg: slices.Clone(got.Reg), NumRegs: got.NumRegs}
			gm.Reg[v] = gm.Reg[w]
			wm := &refAlloc{Reg: make(map[refKey]int, len(want.Reg)), NumRegs: want.NumRegs}
			for k, r := range want.Reg {
				wm.Reg[k] = r
			}
			wm.Reg[refKey{v, s.Cluster[v]}] = wm.Reg[refKey{w, s.Cluster[w]}]
			gerr, werr := codegen.CheckAlloc(s, gm), refCheckAlloc(s, wm)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Errorf("%s: r(%d) := r(%d): replay says %v, reference %v", tc.Name, v, w, gerr, werr)
			}
		}
	}
}

func countEq(xs []int, v int) int {
	n := 0
	for _, x := range xs {
		if x == v {
			n++
		}
	}
	return n
}

// regHolders lists the register-holding nodes in ID order.
func regHolders(s *sched.Schedule) []int {
	var ids []int
	for _, n := range s.Graph.Nodes() {
		if n.Op() != dfg.OpStore {
			ids = append(ids, n.ID())
		}
	}
	return ids
}
