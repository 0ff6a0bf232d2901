package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// drain walks the ready set in rank order, removing every node it
// visits, and returns the nodes.
func drain(s *ReadySet) []int32 {
	var got []int32
	for r := s.Next(0); r >= 0; r = s.Next(r + 1) {
		got = append(got, s.Node(r))
		s.Remove(r)
	}
	return got
}

// TestReadySetRankTies pins the priority order on hand-picked ties:
// ALAP first, then mobility, then consumers (more first), then index.
func TestReadySetRankTies(t *testing.T) {
	//            node:  0  1  2  3  4  5  6
	asap := []int32{0, 1, 1, 0, 1, 2, 0}
	alap := []int32{2, 1, 1, 1, 1, 2, 1}
	cons := []int32{1, 2, 2, 3, 1, 0, 2}
	var s ReadySet
	s.Reset(len(asap), 4)
	s.Rank(asap, alap, cons)
	// ALAP 1: mobility 0 for 1, 2, 4 (consumers 2, 2, 1), mobility 1 for
	// 3 and 6 (consumers 3, 2). ALAP 2: mobility 0 for 5, 2 for 0.
	want := []int32{1, 2, 4, 3, 6, 5, 0}
	if !reflect.DeepEqual(s.order, want) {
		t.Fatalf("rank order %v, want %v", s.order, want)
	}
	for k := int32(0); k < int32(len(asap)); k++ {
		s.Park(k, 0)
	}
	if c := s.Advance(0); c != 0 {
		t.Fatalf("Advance(0) = %d, want 0", c)
	}
	if got := drain(&s); !reflect.DeepEqual(got, want) {
		t.Fatalf("ready walk %v, want the rank order %v", got, want)
	}
}

// TestReadySetRankMatchesSort checks Rank against a comparison sort
// under the paper's priority on random keys with many ties.
func TestReadySetRankMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s ReadySet
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(150)
		asap, alap, cons := make([]int32, n), make([]int32, n), make([]int32, n)
		for k := range asap {
			alap[k] = int32(rng.Intn(8))
			asap[k] = alap[k] - int32(rng.Intn(int(alap[k])+1))
			cons[k] = int32(rng.Intn(4))
		}
		want := make([]int32, n)
		for k := range want {
			want[k] = int32(k)
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if alap[a] != alap[b] {
				return alap[a] < alap[b]
			}
			if ma, mb := alap[a]-asap[a], alap[b]-asap[b]; ma != mb {
				return ma < mb
			}
			if cons[a] != cons[b] {
				return cons[a] > cons[b]
			}
			return a < b
		})
		s.Reset(n, 7)
		s.Rank(asap, alap, cons)
		if !reflect.DeepEqual(s.order, want) {
			t.Fatalf("trial %d: rank order %v, want %v", trial, s.order, want)
		}
		for r, k := range s.order {
			if s.rank[k] != int32(r) {
				t.Fatalf("trial %d: rank[%d] = %d, want %d", trial, k, s.rank[k], r)
			}
		}
	}
}

// TestReadySetWakeBuckets checks that each parked node becomes ready at
// exactly its cycle, that idle cycles are skipped, and that a drained
// set reports nothing left.
func TestReadySetWakeBuckets(t *testing.T) {
	var s ReadySet
	s.Reset(5, 9)
	s.Rank(make([]int32, 5), make([]int32, 5), make([]int32, 5)) // rank = index
	s.Park(3, 0)
	s.Park(1, 2)
	s.Park(4, 2)
	s.Park(0, 7)
	s.Park(2, 9)
	for _, step := range []struct {
		at, want int32
		ready    []int32
	}{
		{0, 0, []int32{3}},
		{1, 2, []int32{1, 4}}, // cycle 1 is idle
		{3, 7, []int32{0}},    // cycles 3–6 are idle
		{8, 9, []int32{2}},
	} {
		if c := s.Advance(step.at); c != step.want {
			t.Fatalf("Advance(%d) = %d, want %d", step.at, c, step.want)
		}
		if got := drain(&s); !reflect.DeepEqual(got, step.ready) {
			t.Fatalf("ready at cycle %d: %v, want %v", step.want, got, step.ready)
		}
	}
	if c := s.Advance(9); c != -1 {
		t.Fatalf("Advance on an empty set = %d, want -1", c)
	}
}

// TestReadySetKeepsBlockedNodes: a node left in the set (its unit was
// busy) stays ready, in rank order, alongside nodes released later.
func TestReadySetKeepsBlockedNodes(t *testing.T) {
	var s ReadySet
	s.Reset(4, 3)
	s.Rank(make([]int32, 4), make([]int32, 4), make([]int32, 4))
	s.Park(2, 0)
	s.Park(3, 0)
	s.Park(0, 1)
	s.Advance(0)
	s.Remove(int(s.rank[3])) // 3 issues, 2 stays blocked
	if c := s.Advance(1); c != 1 {
		t.Fatalf("Advance(1) = %d, want 1", c)
	}
	if got, want := drain(&s), []int32{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ready %v, want %v", got, want)
	}
}

// TestReadySetResetAfterAbort: a schedule abandoned with nodes still
// ready or parked must not leak them into the next one.
func TestReadySetResetAfterAbort(t *testing.T) {
	var s ReadySet
	s.Reset(70, 5)
	s.Rank(make([]int32, 70), make([]int32, 70), make([]int32, 70))
	s.Park(65, 0)
	s.Park(1, 4)
	s.Advance(0)
	s.Reset(3, 5)
	s.Rank(make([]int32, 3), make([]int32, 3), make([]int32, 3))
	s.Park(2, 1)
	if c := s.Advance(0); c != 1 {
		t.Fatalf("Advance(0) = %d, want 1 (a stale node survived Reset)", c)
	}
	if got, want := drain(&s), []int32{2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ready %v, want %v", got, want)
	}
	if c := s.Advance(2); c != -1 {
		t.Fatalf("Advance after the last node = %d, want -1", c)
	}
}
