package sched

import (
	"fmt"
	"slices"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
)

// Lister is the one list scheduler in this repository. Both phases of
// the paper score a binding by list-scheduling its bound graph — the
// B-INIT driver (Section 3.1.3) and B-ITER's Q_U/Q_M passes (Section
// 3.2) — and both reach this code: List runs it on a materialized bound
// graph, problem.Evaluator on the virtual bound graph of every candidate
// binding it scores.
//
// A Lister schedules a flat, index-addressed bound graph. Before Run the
// caller writes nodes 0..n−1, each after all of its predecessors, into
// the exported slices: per node its latency, data-introduction interval,
// pool key (FUPool; LinkPool for a one-hop move; −1 for a move routed
// over several links), cluster (a move's destination), whether it is a
// spill reload held until its ALAP level, whether its result is
// live-out, and its distinct predecessors
// Preds[PredStart[k]:PredStart[k+1]], all of lower index. Run derives
// the successors, the ASAP/ALAP windows at the critical path and the
// consumer counts, ranks the nodes once under the paper's priority (see
// readySet) and issues cycle by cycle: each ready node, in rank order,
// takes the unit of its pool that has been free longest, and a
// multi-hop move one channel per hop of its route, or waits.
//
// A Lister allocates only when a graph outgrows the sizes NewLister was
// given. It is not safe for concurrent use.
type Lister struct {
	Lat, DII, Pool, Cluster []int32
	Hold, LiveOut           []bool
	PredStart, Preds        []int32

	// Start holds each node's issue cycle in the last Run, and L the
	// cycle its last node finishes.
	Start []int32
	L     int32

	n       int32
	slot    []int32 // unitFree slot each node issued on (a multi-hop move's first hop)
	hopSlot []int32 // multi-hop move k's hop h: slot k*maxHops+h

	// Unit pool layout: pool key c*NumFUTypes+t holds the units of type
	// t in cluster c, key fuKeys+l the channels of link l. Pool k owns
	// unitFree slots poolOff[k] … poolOff[k]+poolLen[k]−1; the links'
	// channels lie in global channel order from slot busOff on.
	poolOff, poolLen []int32
	fuKeys, busOff   int32
	// Flattened route table: a transfer from cluster src to dst hops
	// across routeLinks[routeStart[i]:routeStart[i+1]], i = src·clusters+dst.
	routeStart, routeLinks []int32
	clusters               int32
	maxHops                int
	moveLat                int32

	succStart, succs []int32
	asap, alap, cons []int32
	pending          []int32
	unitFree         []int32 // next free cycle of every unit and channel
	// fullAt[k] is 1 + the cycle in which pool k last turned a node
	// away. Within a cycle a pool only gets busier, so every later node
	// on it is turned away too, without probing.
	fullAt []int32
	ready  readySet
}

// NewLister lays out dp's unit pools and routes and sizes the scratch
// for bound graphs of up to n nodes and e predecessor edges whose stall
// bound — critical path plus total work, see Run — is at most horizon.
func NewLister(dp *machine.Datapath, n, e, horizon int) *Lister {
	c := dp.NumClusters()
	ls := &Lister{
		Hold:     make([]bool, n),
		LiveOut:  make([]bool, n),
		fuKeys:   int32(c * dfg.NumFUTypes),
		clusters: int32(c),
		maxHops:  dp.MaxHops(),
		moveLat:  int32(dp.MoveLat()),
	}
	keys := int(ls.fuKeys) + dp.NumLinks()
	ls.poolOff, ls.poolLen = make([]int32, keys), make([]int32, keys)
	for ci := 0; ci < c; ci++ {
		for t := 1; t < dfg.NumFUTypes; t++ {
			if ft := dfg.FUType(t); ft != dfg.FUBus {
				k := ci*dfg.NumFUTypes + t
				ls.poolOff[k], ls.poolLen[k] = ls.busOff, int32(dp.NumFU(ci, ft))
				ls.busOff += ls.poolLen[k]
			}
		}
	}
	for l := 0; l < dp.NumLinks(); l++ {
		k := int(ls.fuKeys) + l
		ls.poolOff[k], ls.poolLen[k] = ls.busOff+int32(dp.LinkOffset(l)), int32(dp.LinkCapacity(l))
	}
	ls.routeStart = make([]int32, c*c+1)
	for i := 0; i < c*c; i++ {
		ls.routeStart[i] = int32(len(ls.routeLinks))
		for _, l := range dp.Route(i/c, i%c) {
			ls.routeLinks = append(ls.routeLinks, int32(l))
		}
	}
	ls.routeStart[c*c] = int32(len(ls.routeLinks))

	// Every int32 slice is carved from one arena: one allocation where
	// List would otherwise make seventeen per call.
	units := int(ls.busOff) + dp.NumBuses()
	arena := make([]int32, 12*n+2+2*e+n*ls.maxHops+units+keys)
	take := func(m int) []int32 {
		s := arena[:m:m]
		arena = arena[m:]
		return s
	}
	ls.Lat, ls.DII, ls.Pool, ls.Cluster = take(n), take(n), take(n), take(n)
	ls.PredStart, ls.Preds = take(n+1), take(e)[:0]
	ls.Start, ls.slot, ls.hopSlot = take(n), take(n), take(n*ls.maxHops)
	ls.succStart, ls.succs = take(n+1), take(e)
	ls.asap, ls.alap, ls.cons, ls.pending = take(n), take(n), take(n), take(n)
	ls.unitFree, ls.fullAt = take(units), take(keys)
	ls.ready.Reset(n, horizon)
	return ls
}

// FUPool is the pool key of cluster c's units of type t.
func (ls *Lister) FUPool(c int32, t dfg.FUType) int32 {
	return c*int32(dfg.NumFUTypes) + int32(t)
}

// LinkPool is the pool key of link l's channels.
func (ls *Lister) LinkPool(l int32) int32 { return ls.fuKeys + l }

// PoolSize is the number of units in pool pk.
func (ls *Lister) PoolSize(pk int32) int32 { return ls.poolLen[pk] }

// Route returns the links a transfer from cluster src to cluster dst
// crosses, in hop order: none when src == dst or no route exists.
func (ls *Lister) Route(src, dst int32) []int32 {
	i := src*ls.clusters + dst
	return ls.routeLinks[ls.routeStart[i]:ls.routeStart[i+1]]
}

// route is the route of multi-hop move k: from its producer's cluster
// to its own.
func (ls *Lister) route(k int32) []int32 {
	return ls.Route(ls.Cluster[ls.Preds[ls.PredStart[k]]], ls.Cluster[k])
}

func (ls *Lister) preds(k int32) []int32 {
	return ls.Preds[ls.PredStart[k]:ls.PredStart[k+1]]
}

// isMove reports whether node k is a transfer: it issues on the
// interconnect rather than on a functional unit.
func (ls *Lister) isMove(k int32) bool {
	pk := ls.Pool[k]
	return pk < 0 || pk >= ls.fuKeys
}

// Run schedules nodes 0..n−1 as written, filling Start and L. It fails
// only when the stall bound passes with nodes unissued, which no graph
// that List or the Evaluator accepts can cause on a datapath machine.New
// built.
func (ls *Lister) Run(n int) error {
	ls.n = int32(n)
	ls.buildSuccs()
	return ls.issue(ls.windows())
}

// buildSuccs derives the successor lists from the predecessor lists,
// each in ascending index order as dfg.Node.Succs lists them.
func (ls *Lister) buildSuccs() {
	n := ls.n
	ss := ls.succStart[:n+1]
	clear(ss)
	for _, p := range ls.Preds[:ls.PredStart[n]] {
		ss[p+1]++
	}
	for k := int32(0); k < n; k++ {
		ss[k+1] += ss[k]
	}
	next := ls.pending[:n] // fill cursors; issue resets pending
	copy(next, ss)
	for k := int32(0); k < n; k++ {
		for _, p := range ls.preds(k) {
			ls.succs[next[p]] = k
			next[p]++
		}
	}
}

// windows computes every node's ASAP/ALAP window at the critical path,
// as dfg.AnalyzeNodes does, and its consumer count: distinct successors
// plus one for a live-out result. It returns the stall bound. Every
// node has a unit to issue on, so no schedule runs past the critical
// path plus every node's latency and per-hop occupancy.
func (ls *Lister) windows() int32 {
	n := ls.n
	target, work := int32(0), int32(0)
	for k := int32(0); k < n; k++ {
		s := int32(0)
		for _, p := range ls.preds(k) {
			s = max(s, ls.asap[p]+ls.Lat[p])
		}
		ls.asap[k] = s
		target = max(target, s+ls.Lat[k])
		hops := int32(1)
		if ls.Pool[k] < 0 {
			hops = int32(len(ls.route(k)))
		}
		work += ls.Lat[k] + hops*ls.DII[k]
		ls.cons[k] = ls.succStart[k+1] - ls.succStart[k]
		if ls.LiveOut[k] {
			ls.cons[k]++
		}
	}
	// Reverse pass: when node k is reached every successor (higher
	// index) has already lowered k's bound, so its ALAP is final.
	alap := ls.alap[:n]
	for k := range alap {
		alap[k] = target
	}
	for k := n - 1; k >= 0; k-- {
		a := alap[k] - ls.Lat[k]
		alap[k] = a
		for _, p := range ls.preds(k) {
			alap[p] = min(alap[p], a)
		}
	}
	return target + work + 1
}

// issue is the list-scheduling loop: rank once, then issue each cycle's
// ready nodes in rank order. One pass per cycle suffices: every latency
// and DII is ≥ 1 (machine.New enforces it), so an issue neither frees a
// unit nor readies a successor within its own cycle. Sources wait for
// cycle 0 — spill reloads for their ALAP level instead: reloading as
// late as dependences allow is what makes a spill shorten its value's
// register residency.
func (ls *Lister) issue(bound int32) error {
	n, rs := ls.n, &ls.ready
	clear(ls.unitFree)
	clear(ls.fullAt)
	rs.Reset(int(n), int(bound))
	rs.Rank(ls.asap, ls.alap, ls.cons)
	for k := int32(0); k < n; k++ {
		ls.pending[k] = ls.PredStart[k+1] - ls.PredStart[k]
		if ls.pending[k] == 0 {
			at := int32(0)
			if ls.Hold[k] {
				at = ls.alap[k]
			}
			rs.Park(k, at)
		}
	}
	L := int32(0)
	for cycle, left := int32(0), n; left > 0; cycle++ {
		if cycle > bound {
			return stalled(cycle)
		}
		if cycle = rs.Advance(cycle); cycle < 0 {
			return stalled(bound)
		}
		for r := rs.Next(0); r >= 0; r = rs.Next(r + 1) {
			k := rs.Node(r)
			pk := ls.Pool[k]
			if pk >= 0 && ls.fullAt[pk] == cycle+1 {
				continue
			}
			if !ls.reserve(k, cycle) {
				if pk >= 0 {
					ls.fullAt[pk] = cycle + 1
				}
				continue
			}
			rs.Remove(r)
			ls.Start[k] = cycle
			L = max(L, cycle+ls.Lat[k])
			left--
			for _, s := range ls.succs[ls.succStart[k]:ls.succStart[k+1]] {
				if ls.pending[s]--; ls.pending[s] > 0 {
					continue
				}
				at := int32(0)
				for _, p := range ls.preds(s) {
					at = max(at, ls.Start[p]+ls.Lat[p])
				}
				if ls.Hold[s] {
					at = max(at, ls.alap[s])
				}
				if at > bound {
					return stalled(bound + 1)
				}
				rs.Park(s, at)
			}
		}
	}
	ls.L = L
	return nil
}

func stalled(cycle int32) error {
	return fmt.Errorf("sched: no progress by cycle %d; resource model inconsistent", cycle)
}

// reserve books a unit of node k's pool for it at cycle and reports
// false, with nothing booked, when none is free.
func (ls *Lister) reserve(k, cycle int32) bool {
	if ls.Pool[k] < 0 {
		return ls.reserveRoute(k, cycle)
	}
	s := ls.free(ls.Pool[k], cycle)
	if s < 0 {
		return false
	}
	ls.unitFree[s] = cycle + ls.DII[k]
	ls.slot[k] = s
	return true
}

// reserveRoute books multi-hop move k. Hop h holds a channel of its
// link during [cycle+h·MoveLat, +DII) — store-and-forward, with no
// stop-over in intermediate register files. All hops reserve together
// or not at all; shortest-path routes never repeat a link, so the
// per-hop probes are independent.
func (ls *Lister) reserveRoute(k, cycle int32) bool {
	route := ls.route(k)
	for h, l := range route {
		if ls.free(ls.fuKeys+l, cycle+int32(h)*ls.moveLat) < 0 {
			return false
		}
	}
	hops := ls.hopSlot[int(k)*ls.maxHops:]
	for h, l := range route {
		at := cycle + int32(h)*ls.moveLat
		s := ls.free(ls.fuKeys+l, at)
		ls.unitFree[s] = at + ls.DII[k]
		hops[h] = s
	}
	ls.slot[k] = hops[0]
	return true
}

// free returns the slot of the unit of pool pk that is free at cycle and
// has been free longest — smallest next-free cycle, lowest index on
// ties — or −1 when none is free.
func (ls *Lister) free(pk, cycle int32) int32 {
	off := ls.poolOff[pk]
	best, bestAt := int32(-1), cycle+1
	for i, at := range ls.unitFree[off : off+ls.poolLen[pk]] {
		if at <= cycle && at < bestAt {
			best, bestAt = off+int32(i), at
		}
	}
	return best
}

// unit is the unit node k issued on in the last Run: its index within
// its pool, or for a move the global channel of its first hop.
func (ls *Lister) unit(k int32) int {
	if ls.isMove(k) {
		return int(ls.slot[k] - ls.busOff)
	}
	return int(ls.slot[k] - ls.poolOff[ls.Pool[k]])
}

// hopChannels returns the global channel of every hop of multi-hop move
// k in the last Run, in route order.
func (ls *Lister) hopChannels(k int32) []int {
	slots := ls.hopSlot[int(k)*ls.maxHops:][:len(ls.route(k))]
	chs := make([]int, len(slots))
	for h, s := range slots {
		chs[h] = int(s - ls.busOff)
	}
	return chs
}

// AppendProfile appends the completion profile of the last Run —
// U_0 … U_{L−1}, where U_i counts the nodes other than moves finishing
// at cycle L−i — and returns the extended slice.
func (ls *Lister) AppendProfile(dst []int) []int {
	start, end := len(dst), len(dst)+int(ls.L)
	dst = slices.Grow(dst, int(ls.L))[:end]
	clear(dst[start:])
	for k := int32(0); k < ls.n; k++ {
		if !ls.isMove(k) {
			dst[end-int(ls.Start[k]+ls.Lat[k])]++
		}
	}
	return dst
}
