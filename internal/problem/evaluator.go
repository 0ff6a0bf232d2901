package problem

import (
	"fmt"

	"vliwbind/internal/dfg"
	"vliwbind/internal/sched"
)

// Eval is the compact outcome of virtually scheduling one candidate
// binding: the paper's two figures of merit. Everything richer — the
// completion profile behind Q_U, per-node start cycles — stays in the
// Evaluator's scratch until explicitly appended out, so evaluating a
// candidate allocates nothing.
type Eval struct {
	L int // schedule latency
	M int // number of synthesized data transfers
}

// Evaluator answers the inner question of every binding algorithm —
// "what (L, M) does this candidate binding schedule to?" — without
// materializing a bound graph or a Schedule. It replicates
// BuildBound + sched.List operation for operation: the same move
// synthesis order, the same ASAP/ALAP analysis, the same priority
// ranking and unit selection, so its answer is bit-identical to the
// materialized path, but every intermediate lives in preallocated
// scratch reused across calls.
//
// An Evaluator is NOT safe for concurrent use; create one per worker
// (NewEvaluator is cheap) and share the immutable Problem underneath.
type Evaluator struct {
	p *Problem

	// Generation-stamped (producer, destination cluster) → virtual move
	// lookup; bumping gen invalidates the whole table in O(1).
	gen     int32
	moveTab []int32
	moveGen []int32

	vOf []int32 // original node ID → virtual node index, per call

	// The virtual bound graph of the last Evaluate. Virtual node indexes
	// are exactly the node IDs BuildBound would assign: moves are created
	// at first use, immediately before their first consumer.
	nv       int
	nMoves   int
	moveWork int32   // Σ hops·(moveDII+moveLat) over moves, for the stall guard
	vID      []int32 // original node ID; for moves, the producer's ID
	vIsMove  []bool
	vCluster []int32 // moves carry their destination cluster
	vLat     []int32 // latency per virtual node, flattened by buildVirtual
	vPool    []int32 // pool key of the unit each node issues on; −1 for multi-hop moves

	// Dependence structure in CSR form, rebuilt per call.
	predStart []int32
	preds     []int32
	succStart []int32
	succs     []int32
	succCnt   []int32

	// Per-virtual-node schedule state.
	asap, alap []int32
	cons       []int32 // consumer count, the priority's third key
	start      []int32
	pending    []int32

	ready    sched.ReadySet
	unitFree []int32
	// fullAt[k] is 1 + the cycle in which pool k last turned a node
	// away. Within a cycle a pool only gets busier, so every later node
	// on it is turned away too, without probing.
	fullAt []int32

	lastL   int32
	profile []int32
}

// NewEvaluator creates an evaluator with scratch sized for the problem's
// worst case (every dependence crossing clusters on the longest route),
// so Evaluate never allocates.
func (p *Problem) NewEvaluator() *Evaluator {
	maxV := p.n + len(p.preds) // every pred edge spawns at most one move
	maxE := 2 * len(p.preds)   // original edges + one edge per move
	e := &Evaluator{
		p:         p,
		moveTab:   make([]int32, p.n*p.clusters),
		moveGen:   make([]int32, p.n*p.clusters),
		vOf:       make([]int32, p.n),
		vID:       make([]int32, maxV),
		vIsMove:   make([]bool, maxV),
		vCluster:  make([]int32, maxV),
		vLat:      make([]int32, maxV),
		vPool:     make([]int32, maxV),
		predStart: make([]int32, maxV+1),
		preds:     make([]int32, 0, maxE),
		succStart: make([]int32, maxV+1),
		succs:     make([]int32, maxE),
		succCnt:   make([]int32, maxV),
		asap:      make([]int32, maxV),
		alap:      make([]int32, maxV),
		cons:      make([]int32, maxV),
		start:     make([]int32, maxV),
		pending:   make([]int32, maxV),
		unitFree:  make([]int32, p.unitPoolLen),
		fullAt:    make([]int32, len(p.poolOff)),
	}
	// The stall-guard bound of any candidate: its critical path and its
	// total work are each at most the original work plus that of every
	// possible move.
	maxMoveWork := int32(len(p.preds)) * int32(p.dp.MaxHops()) * (p.moveDII + p.moveLat)
	e.ready.Reset(maxV, int(2*(p.baseWork+maxMoveWork)+1))
	return e
}

// Problem returns the immutable problem this evaluator schedules against.
func (e *Evaluator) Problem() *Problem { return e.p }

func (e *Evaluator) latOf(k int32) int32 { return e.vLat[k] }

func (e *Evaluator) diiOf(k int32) int32 {
	if e.vIsMove[k] {
		return e.p.moveDII
	}
	return e.p.dii[e.vID[k]]
}

func (e *Evaluator) vPredsOf(k int32) []int32 {
	return e.preds[e.predStart[k]:e.predStart[k+1]]
}

func (e *Evaluator) vSuccsOf(k int32) []int32 {
	return e.succs[e.succStart[k]:e.succStart[k+1]]
}

// numConsumers mirrors dfg.Node.NumConsumers on the virtual bound graph:
// distinct consumers plus one for a live-out result. Moves are never
// live-out; regular nodes keep the original graph's output flag.
func (e *Evaluator) numConsumers(k int32) int32 {
	c := e.succStart[k+1] - e.succStart[k]
	if !e.vIsMove[k] && e.p.output[e.vID[k]] {
		c++
	}
	return c
}

// Evaluate virtually binds and schedules one candidate. The binding is
// read, never retained; the result's richer parts (completion profile,
// start cycles) remain readable via AppendQualityU / AppendStarts until
// the next Evaluate on this evaluator.
func (e *Evaluator) Evaluate(bn []int) (Eval, error) {
	if err := e.validate(bn); err != nil {
		return Eval{}, err
	}
	if err := e.buildVirtual(bn); err != nil {
		return Eval{}, err
	}
	e.buildSucc()
	L, err := e.schedule(e.computeWindows())
	if err != nil {
		return Eval{}, err
	}
	e.lastL = L
	return Eval{L: int(L), M: e.nMoves}, nil
}

// validate mirrors sched.List's checks on the bound graph; moves need no
// extra check because their destination is always a consumer's (already
// validated) cluster.
func (e *Evaluator) validate(bn []int) error {
	p := e.p
	if len(bn) != p.n {
		return fmt.Errorf("problem: binding has %d entries for %d nodes", len(bn), p.n)
	}
	for id := 0; id < p.n; id++ {
		c := bn[id]
		if c < 0 || c >= p.clusters {
			return fmt.Errorf("problem: node %s bound to invalid cluster %d", p.g.Node(id).Name(), c)
		}
		if p.poolLen[c*dfg.NumFUTypes+int(p.fut[id])] == 0 {
			n := p.g.Node(id)
			return fmt.Errorf("problem: node %s (%s) bound to cluster %d with no %s units",
				n.Name(), n.Op(), c, n.FUType())
		}
	}
	return nil
}

// buildVirtual is phase 1: synthesize the bound graph virtually, in
// exactly BuildBound's node order — for each original node in
// topological order, first the not-yet-existing moves its cross-cluster
// operands need (in first-use order), then the node itself.
func (e *Evaluator) buildVirtual(bn []int) error {
	p := e.p
	e.gen++
	if e.gen <= 0 { // generation counter wrapped; invalidate explicitly
		for i := range e.moveGen {
			e.moveGen[i] = 0
		}
		e.gen = 1
	}
	nv := int32(0)
	e.preds = e.preds[:0]
	e.moveWork = 0
	nMoves := 0
	for _, id := range p.order {
		c := int32(bn[id])
		for _, pr := range p.predsOf(id) {
			if int32(bn[pr]) == c {
				continue
			}
			slot := pr*int32(p.clusters) + c
			if e.moveGen[slot] == e.gen {
				continue
			}
			if p.numBuses == 0 {
				return fmt.Errorf("problem: binding needs moves but datapath has no interconnect")
			}
			e.vID[nv] = pr
			e.vIsMove[nv] = true
			e.vCluster[nv] = c
			// A routed move pays MoveLat per hop; on single-hop
			// machines this is exactly the scalar model's MoveLat.
			route := p.routeOf(int32(bn[pr]), c)
			hops := int32(len(route))
			if hops == 0 {
				return fmt.Errorf("problem: binding needs a move from cluster %d to %d but the interconnect has no route", bn[pr], c)
			}
			e.vLat[nv] = hops * p.moveLat
			e.moveWork += hops * (p.moveDII + p.moveLat)
			e.vPool[nv] = -1
			if hops == 1 {
				e.vPool[nv] = p.fuKeys + route[0]
			}
			e.predStart[nv] = int32(len(e.preds))
			e.preds = append(e.preds, e.vOf[pr])
			e.moveGen[slot] = e.gen
			e.moveTab[slot] = nv
			nv++
			nMoves++
		}
		e.vID[nv] = id
		e.vIsMove[nv] = false
		e.vCluster[nv] = c
		e.vLat[nv] = p.lat[id]
		e.vPool[nv] = c*int32(dfg.NumFUTypes) + p.fut[id]
		e.predStart[nv] = int32(len(e.preds))
		for _, pr := range p.predsOf(id) {
			if int32(bn[pr]) == c {
				e.preds = append(e.preds, e.vOf[pr])
			} else {
				e.preds = append(e.preds, e.moveTab[pr*int32(p.clusters)+c])
			}
		}
		e.vOf[id] = nv
		nv++
	}
	e.predStart[nv] = int32(len(e.preds))
	e.nv, e.nMoves = int(nv), nMoves
	return nil
}

// buildSucc derives the successor CSR: pred lists are distinct per
// consumer, so each succ list is distinct too, appended in
// consumer-creation order — the same shape dfg.Node.Succs has on the
// materialized bound graph. On return succCnt holds each node's
// successor count.
func (e *Evaluator) buildSucc() {
	nv := int32(e.nv)
	cnt := e.succCnt[:nv]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, pr := range e.preds {
		cnt[pr]++
	}
	ss := e.succStart[:nv+1]
	ss[0] = 0
	for k := int32(0); k < nv; k++ {
		ss[k+1] = ss[k] + cnt[k]
		cnt[k] = 0
	}
	for k := int32(0); k < nv; k++ {
		for _, pr := range e.vPredsOf(k) {
			e.succs[ss[pr]+cnt[pr]] = k
			cnt[pr]++
		}
	}
}

// computeWindows is phase 2: ASAP/ALAP of the virtual bound graph at its
// critical path, matching dfg.Analyze(bound, lat, 0). ALAP comes from a
// reverse pass relaxing predecessors: when node k is reached its own
// ALAP is final, because every successor (higher index) has already
// pushed its bound. Returns the critical-path target.
func (e *Evaluator) computeWindows() int32 {
	nv := int32(e.nv)
	target := int32(0)
	for k := int32(0); k < nv; k++ {
		s := int32(0)
		for _, pr := range e.vPredsOf(k) {
			if t := e.asap[pr] + e.latOf(pr); t > s {
				s = t
			}
		}
		e.asap[k] = s
		if fin := s + e.latOf(k); fin > target {
			target = fin
		}
	}
	al := e.alap[:nv]
	for i := range al {
		al[i] = target
	}
	for k := nv - 1; k >= 0; k-- {
		a := e.alap[k] - e.latOf(k)
		e.alap[k] = a
		for _, pr := range e.vPredsOf(k) {
			if a < e.alap[pr] {
				e.alap[pr] = a
			}
		}
	}
	return target
}

// schedule is phase 3: list scheduling, mirroring sched.List cycle for
// cycle on the same ReadySet core — rank once, then issue each cycle's
// ready nodes in rank order, one pass per cycle. Returns L.
func (e *Evaluator) schedule(target int32) (int32, error) {
	p := e.p
	nv := int32(e.nv)
	bound := target + p.baseWork + e.moveWork + 1
	clear(e.unitFree)
	clear(e.fullAt)
	rs := &e.ready
	rs.Reset(int(nv), int(bound))
	for k := int32(0); k < nv; k++ {
		e.cons[k] = e.numConsumers(k)
	}
	rs.Rank(e.asap, e.alap, e.cons)
	for k := int32(0); k < nv; k++ {
		e.start[k] = -1
		np := e.predStart[k+1] - e.predStart[k]
		e.pending[k] = np
		if np == 0 {
			at := int32(0)
			if !e.vIsMove[k] && p.isLoad[e.vID[k]] {
				at = e.alap[k] // spill reloads are held to their ALAP level
			}
			rs.Park(k, at)
		}
	}
	L := int32(0)
	for cycle, unscheduled := int32(0), nv; unscheduled > 0; cycle++ {
		if cycle > bound {
			return 0, stalled(cycle)
		}
		if cycle = rs.Advance(cycle); cycle < 0 {
			return 0, stalled(bound)
		}
		for r := rs.Next(0); r >= 0; r = rs.Next(r + 1) {
			k := rs.Node(r)
			pk := e.vPool[k]
			if pk >= 0 && e.fullAt[pk] == cycle+1 {
				continue
			}
			if !e.reserve(k, cycle) {
				if pk >= 0 {
					e.fullAt[pk] = cycle + 1
				}
				continue
			}
			rs.Remove(r)
			e.start[k] = cycle
			L = max(L, cycle+e.latOf(k))
			unscheduled--
			for _, s := range e.vSuccsOf(k) {
				if e.pending[s]--; e.pending[s] > 0 {
					continue
				}
				ev := int32(0)
				for _, pr := range e.vPredsOf(s) {
					ev = max(ev, e.start[pr]+e.latOf(pr))
				}
				if !e.vIsMove[s] && p.isLoad[e.vID[s]] {
					ev = max(ev, e.alap[s])
				}
				if ev > bound {
					return 0, stalled(bound + 1)
				}
				rs.Park(s, ev)
			}
		}
	}
	return L, nil
}

func stalled(cycle int32) error {
	return fmt.Errorf("problem: no progress by cycle %d; resource model inconsistent", cycle)
}

// reserve books the unit node k needs to issue at cycle, reporting
// false — with no state touched — when none is free: the unit of its
// pool whose next-free time is smallest, as sched.List picks it.
func (e *Evaluator) reserve(k, cycle int32) bool {
	pk := e.vPool[k]
	if pk < 0 {
		return e.reserveRoute(k, cycle)
	}
	pool := e.pool(pk)
	u := freeUnit32(pool, cycle)
	if u < 0 {
		return false
	}
	pool[u] = cycle + e.diiOf(k)
	return true
}

// reserveRoute books the channels of a multi-hop move k. Hop h occupies
// one channel of its link during [cycle+h·MoveLat, +MoveDII) —
// store-and-forward, mirroring sched.List. All hops reserve together or
// not at all; shortest-path routes never repeat a link, so the
// feasibility probes are independent. A move's source is its single
// producer's cluster.
func (e *Evaluator) reserveRoute(k, cycle int32) bool {
	p := e.p
	route := p.routeOf(e.vCluster[e.preds[e.predStart[k]]], e.vCluster[k])
	for h, l := range route {
		if freeUnit32(e.pool(p.fuKeys+l), cycle+int32(h)*p.moveLat) < 0 {
			return false
		}
	}
	for h, l := range route {
		pool := e.pool(p.fuKeys + l)
		at := cycle + int32(h)*p.moveLat
		pool[freeUnit32(pool, at)] = at + p.moveDII
	}
	return true
}

// pool returns the next-free cycles of pool key pk's units.
func (e *Evaluator) pool(pk int32) []int32 {
	off := e.p.poolOff[pk]
	return e.unitFree[off : off+e.p.poolLen[pk]]
}

// freeUnit32 is sched.List's unit selection: the unit free at the cycle
// whose next-free time is smallest, earliest index winning ties, or -1.
func freeUnit32(pool []int32, cycle int32) int {
	best, bestAt := -1, cycle+1
	for i, at := range pool {
		if at <= cycle && at < bestAt {
			best, bestAt = i, at
		}
	}
	return best
}

// AppendQualityU appends the paper's Q_U vector of the last Evaluate —
// the latency followed by the completion profile (U_0 … U_{L-1}), where
// U_i counts the regular operations completing at cycle L−i — and
// returns the extended slice. Identical to prepending Schedule.L to
// Schedule.CompletionProfile(0) on the materialized schedule.
func (e *Evaluator) AppendQualityU(dst []int) []int {
	L := e.lastL
	if int32(cap(e.profile)) < L {
		e.profile = make([]int32, L)
	}
	prof := e.profile[:L]
	for i := range prof {
		prof[i] = 0
	}
	for k := int32(0); k < int32(e.nv); k++ {
		if e.vIsMove[k] {
			continue
		}
		if i := L - (e.start[k] + e.latOf(k)); i >= 0 && i < L {
			prof[i]++
		}
	}
	dst = append(dst, int(L))
	for _, u := range prof {
		dst = append(dst, int(u))
	}
	return dst
}

// AppendStarts appends the issue cycle of every virtual bound node of
// the last Evaluate, in bound-node-ID order — exactly Schedule.Start of
// the materialized schedule. Primarily a differential-testing hook.
func (e *Evaluator) AppendStarts(dst []int) []int {
	for k := 0; k < e.nv; k++ {
		dst = append(dst, int(e.start[k]))
	}
	return dst
}

// NumBoundNodes is the virtual bound graph's node count from the last
// Evaluate (original operations plus synthesized moves).
func (e *Evaluator) NumBoundNodes() int { return e.nv }
