package problem

import (
	"fmt"

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
// materializing a bound graph or a Schedule. It synthesizes the moves
// exactly as BuildBound does (same nodes, same order, same indices) but
// writes the bound graph straight into its own sched.Lister, the list
// scheduler sched.List also runs. Its answer is therefore bit-identical
// to the materialized path, while every intermediate lives in
// preallocated scratch reused across calls.
//
// An Evaluator is NOT safe for concurrent use; create one per worker
// (NewEvaluator is cheap) and share the immutable Problem underneath.
type Evaluator struct {
	p  *Problem
	ls *sched.Lister

	// Generation-stamped (producer, destination cluster) → virtual move
	// lookup; bumping gen invalidates the whole table in O(1).
	gen     int32
	moveTab []int32
	moveGen []int32

	vOf []int32 // original node ID → virtual node index, per call

	// Size of the virtual bound graph of the last Evaluate. Virtual node
	// indexes are exactly the node IDs BuildBound would assign: moves are
	// created at first use, immediately before their first consumer.
	nv     int
	nMoves int
}

// NewEvaluator creates an evaluator with scratch sized for the problem's
// worst case (every dependence crossing clusters on the longest route),
// so Evaluate never allocates.
func (p *Problem) NewEvaluator() *Evaluator {
	maxV := p.n + len(p.preds) // every pred edge spawns at most one move
	maxE := 2 * len(p.preds)   // original edges + one edge per move
	// The stall bound of any candidate: its critical path and its total
	// work are each at most the original work plus that of every
	// possible move.
	maxMoveWork := int32(len(p.preds)) * int32(p.dp.MaxHops()) * (p.moveDII + p.moveLat)
	return &Evaluator{
		p:       p,
		ls:      sched.NewLister(p.dp, maxV, maxE, int(2*(p.baseWork+maxMoveWork)+1)),
		moveTab: make([]int32, p.n*p.clusters),
		moveGen: make([]int32, p.n*p.clusters),
		vOf:     make([]int32, p.n),
	}
}

// Problem returns the immutable problem this evaluator schedules against.
func (e *Evaluator) Problem() *Problem { return e.p }

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
	if err := e.ls.Run(e.nv); err != nil {
		return Eval{}, err
	}
	return Eval{L: int(e.ls.L), M: e.nMoves}, nil
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
		if e.ls.PoolSize(e.ls.FUPool(int32(c), p.fut[id])) == 0 {
			n := p.g.Node(id)
			return fmt.Errorf("problem: node %s (%s) bound to cluster %d with no %s units",
				n.Name(), n.Op(), c, n.FUType())
		}
	}
	return nil
}

// buildVirtual synthesizes the bound graph into the Lister, in exactly
// BuildBound's node order — for each original node in topological
// order, first the not-yet-existing moves its cross-cluster operands
// need (in first-use order), then the node itself.
func (e *Evaluator) buildVirtual(bn []int) error {
	p, ls := e.p, e.ls
	e.gen++
	if e.gen <= 0 { // generation counter wrapped; invalidate explicitly
		clear(e.moveGen)
		e.gen = 1
	}
	nv := int32(0)
	ls.Preds = ls.Preds[:0]
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
			if p.dp.NumBuses() == 0 {
				return fmt.Errorf("problem: binding needs moves but datapath has no interconnect")
			}
			// A routed move pays MoveLat per hop; on single-hop
			// machines this is exactly the scalar model's MoveLat.
			route := ls.Route(int32(bn[pr]), c)
			hops := int32(len(route))
			if hops == 0 {
				return fmt.Errorf("problem: binding needs a move from cluster %d to %d but the interconnect has no route", bn[pr], c)
			}
			ls.Lat[nv], ls.DII[nv], ls.Pool[nv] = hops*p.moveLat, p.moveDII, -1
			if hops == 1 {
				ls.Pool[nv] = ls.LinkPool(route[0])
			}
			ls.Cluster[nv], ls.Hold[nv], ls.LiveOut[nv] = c, false, false
			ls.PredStart[nv] = int32(len(ls.Preds))
			ls.Preds = append(ls.Preds, e.vOf[pr])
			e.moveGen[slot] = e.gen
			e.moveTab[slot] = nv
			nv++
			nMoves++
		}
		ls.Lat[nv], ls.DII[nv], ls.Pool[nv] = p.lat[id], p.dii[id], ls.FUPool(c, p.fut[id])
		ls.Cluster[nv], ls.Hold[nv], ls.LiveOut[nv] = c, p.isLoad[id], p.output[id]
		ls.PredStart[nv] = int32(len(ls.Preds))
		for _, pr := range p.predsOf(id) {
			if int32(bn[pr]) == c {
				ls.Preds = append(ls.Preds, e.vOf[pr])
			} else {
				ls.Preds = append(ls.Preds, e.moveTab[pr*int32(p.clusters)+c])
			}
		}
		e.vOf[id] = nv
		nv++
	}
	ls.PredStart[nv] = int32(len(ls.Preds))
	e.nv, e.nMoves = int(nv), nMoves
	return nil
}

// AppendQualityU appends the paper's Q_U vector of the last Evaluate —
// the latency followed by the completion profile (U_0 … U_{L-1}), where
// U_i counts the regular operations completing at cycle L−i — and
// returns the extended slice. Identical to prepending Schedule.L to
// Schedule.CompletionProfile(0) on the materialized schedule.
func (e *Evaluator) AppendQualityU(dst []int) []int {
	return e.ls.AppendProfile(append(dst, int(e.ls.L)))
}

// AppendStarts appends the issue cycle of every virtual bound node of
// the last Evaluate, in bound-node-ID order — exactly Schedule.Start of
// the materialized schedule. Primarily a differential-testing hook.
func (e *Evaluator) AppendStarts(dst []int) []int {
	for _, st := range e.ls.Start[:e.nv] {
		dst = append(dst, int(st))
	}
	return dst
}

// NumBoundNodes is the virtual bound graph's node count from the last
// Evaluate (original operations plus synthesized moves).
func (e *Evaluator) NumBoundNodes() int { return e.nv }
