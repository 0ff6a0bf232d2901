package sched

import "math/bits"

// ReadySet is the ready list both list schedulers in this repository
// issue from: List on a materialized bound graph, and problem.Evaluator
// on its virtual twin. The paper's priority — ALAP level, then
// mobility, then consumer count, then node ID — is fixed once a
// schedule's ASAP/ALAP windows exist, so Rank orders the nodes once per
// schedule and the set keeps the ready ones as bits in rank order.
// Visiting set bits lowest first is exactly the order a sort of the
// ready list by that priority would give, with nothing sorted per
// cycle. A node whose operands are not yet available waits in the wake
// bucket of its earliest cycle and joins the set when that cycle is
// released.
//
// Nodes are the dense indices 0..n−1. Reset reuses storage, so a set
// owned by a long-lived evaluator allocates only when a schedule
// outgrows every earlier one.
type ReadySet struct {
	order []int32  // rank → node
	rank  []int32  // node → rank
	bits  []uint64 // bit r set: node order[r] is ready
	ready int      // set bits

	// Wake buckets as intrusive lists: head[c] is 1 + the first node
	// parked for cycle c, next[k] is 1 + the node after k in its bucket;
	// 0 ends a list, so freshly allocated storage is all empty buckets.
	head   []int32
	next   []int32
	parked int

	cnt []int32  // counting-sort scratch, one slot per ALAP level
	tie []uint64 // rank → packed (mobility, consumers) key, while ranking
}

// Reset empties the set and sizes it for n nodes parked at cycles
// 0..horizon, with ALAP levels up to horizon.
func (s *ReadySet) Reset(n, horizon int) {
	if s.ready > 0 || s.parked > 0 {
		// An aborted schedule left nodes behind; a drained one leaves
		// every bit and bucket clear, so the common path skips this.
		clear(s.bits)
		clear(s.head[:cap(s.head)])
		s.ready, s.parked = 0, 0
	}
	s.order = grow(s.order, n)
	s.rank = grow(s.rank, n)
	s.next = grow(s.next, n)
	s.bits = grow(s.bits, (n+63)/64)
	s.head = grow(s.head, horizon+1)
	s.cnt = grow(s.cnt, horizon+2)
	s.tie = grow(s.tie, n)
}

// grow returns buf resliced to n, reallocating (zeroed) only when its
// capacity is short. Reused storage keeps whatever it held.
func grow[T int32 | uint64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Rank orders the nodes by the paper's priority: ALAP level ascending,
// mobility (ALAP − ASAP) ascending, consumer count descending, node
// index ascending — a strict total order. A counting sort on ALAP
// places the nodes, in index order, into one bucket per level, each
// with its packed (mobility, consumer) tie key alongside; the few ties
// inside a bucket are then settled by a stable insertion sort on that
// key, which leaves equal keys in index order. ALAP levels must lie in
// 0..horizon and mobilities be non-negative; every slice needs at least
// n entries.
func (s *ReadySet) Rank(asap, alap, cons []int32) {
	n := len(s.order)
	maxA, maxC := int32(0), int32(0)
	for k := 0; k < n; k++ {
		maxA, maxC = max(maxA, alap[k]), max(maxC, cons[k])
	}
	cnt, tie := s.cnt[:maxA+2], s.tie
	clear(cnt)
	for _, a := range alap[:n] {
		cnt[a+1]++
	}
	for a := 1; a < len(cnt); a++ {
		cnt[a] += cnt[a-1]
	}
	for k := int32(0); k < int32(n); k++ {
		a := alap[k]
		i := cnt[a]
		cnt[a]++
		s.order[i] = k
		tie[i] = uint64(a-asap[k])<<32 | uint64(maxC-cons[k])
	}
	// Bucket a now ends at cnt[a]; it started where bucket a−1 ended.
	lo := int32(0)
	for _, hi := range cnt[:maxA+1] {
		for i := lo + 1; i < hi; i++ {
			k, t := s.order[i], tie[i]
			j := i
			for ; j > lo && tie[j-1] > t; j-- {
				s.order[j], tie[j] = s.order[j-1], tie[j-1]
			}
			s.order[j], tie[j] = k, t
		}
		lo = hi
	}
	for r, k := range s.order {
		s.rank[k] = int32(r)
	}
}

// Park holds node k until cycle at, when Advance makes it ready. at
// must not exceed the horizon given to Reset.
func (s *ReadySet) Park(k, at int32) {
	s.next[k] = s.head[at]
	s.head[at] = k + 1
	s.parked++
}

// Advance releases the wake bucket of cycle c into the ready set. When
// that leaves nothing ready it skips the idle cycles up to the next
// non-empty bucket and releases that one instead. It returns the cycle
// to issue in, or −1 when nothing is ready or parked (a scheduler that
// still has unissued nodes then has a dependence it can never meet).
func (s *ReadySet) Advance(c int32) int32 {
	s.release(c)
	if s.ready > 0 {
		return c
	}
	if s.parked == 0 {
		return -1
	}
	for c++; s.head[c] == 0; c++ {
	}
	s.release(c)
	return c
}

func (s *ReadySet) release(c int32) {
	for k := s.head[c]; k != 0; k = s.next[k-1] {
		r := s.rank[k-1]
		s.bits[r>>6] |= 1 << uint(r&63)
		s.ready++
		s.parked--
	}
	s.head[c] = 0
}

// Next returns the lowest ready rank ≥ r, or −1. Issuing in the order
// r = Next(0), Next(r+1), … visits the ready nodes by priority, and
// Remove during that walk is safe.
func (s *ReadySet) Next(r int) int {
	w := r >> 6
	if w >= len(s.bits) {
		return -1
	}
	x := s.bits[w] &^ (1<<uint(r&63) - 1)
	for x == 0 {
		if w++; w == len(s.bits) {
			return -1
		}
		x = s.bits[w]
	}
	return w<<6 + bits.TrailingZeros64(x)
}

// Node returns the node of rank r.
func (s *ReadySet) Node(r int) int32 { return s.order[r] }

// Remove takes the node of rank r out of the ready set once it issued.
func (s *ReadySet) Remove(r int) {
	s.bits[r>>6] &^= 1 << uint(r&63)
	s.ready--
}
