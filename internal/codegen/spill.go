package codegen

import (
	"fmt"

	"vliwbind/internal/bind"
	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/sched"
)

// spill.go turns the paper's deferred register-allocation stage into a
// closed loop. Section 2 assumes unbounded register files on the grounds
// that "costly spills to memory should be rare and will later be
// carefully selected (when needed) so as to not significantly affect
// performance". SpillRebind is that later selection: when a bound
// solution does not fit the real register files, it spills the
// longest-lived value of the overflowing cluster to local memory
// (OpStore), reloads it as late as dependences allow (OpLoad — the list
// scheduler holds reloads back to their ALAP level), re-schedules, and
// repeats until the allocation fits. The latency delta it reports is a
// direct measurement of the paper's "rare and cheap" claim.

// SpillResult is a register-file-feasible solution with its allocation.
type SpillResult struct {
	// Result is the re-evaluated solution; its graph contains the
	// inserted OpStore/OpLoad pairs.
	Result *bind.Result
	// Alloc fits within the requested register file size.
	Alloc *Alloc
	// Spills is the number of values spilled.
	Spills int
	// BaseL is the schedule latency before any spilling, so callers can
	// quantify the cost: Result.L() − BaseL cycles.
	BaseL int
}

// SpillRebind evaluates the binding and, if any cluster needs more than
// maxRegs registers, iteratively inserts spill code until the linear-scan
// allocation fits. The graph must be an original (move-free) graph; spill
// stores and reloads stay in the spilled value's cluster (local
// scratchpad memory), occupying its memory ports.
func SpillRebind(g *dfg.Graph, dp *machine.Datapath, binding []int, maxRegs int) (*SpillResult, error) {
	if maxRegs < 2 {
		return nil, fmt.Errorf("codegen: register files need at least 2 entries, got %d", maxRegs)
	}
	cur := g
	bn := append([]int(nil), binding...)
	res, err := bind.Evaluate(cur, dp, bn)
	if err != nil {
		return nil, err
	}
	baseL := res.L()
	spills := 0
	// Spilling must make progress: if several consecutive spills fail to
	// reduce the aggregate over-demand, the block has hit its structural
	// floor (e.g. more simultaneously live-out values than the file can
	// hold) and no amount of spilling helps.
	const stallLimit = 4
	bestOver, stalled := int(^uint(0)>>1), 0
	for {
		alloc, err := Allocate(res.Schedule, 0)
		if err != nil {
			return nil, err
		}
		worst, demand, over := -1, maxRegs, 0
		for c, n := range alloc.NumRegs {
			if n > maxRegs {
				over += n - maxRegs
			}
			if n > demand {
				worst, demand = c, n
			}
		}
		if worst < 0 {
			return &SpillResult{Result: res, Alloc: alloc, Spills: spills, BaseL: baseL}, nil
		}
		if over < bestOver {
			bestOver, stalled = over, 0
		} else {
			stalled++
			if stalled >= stallLimit {
				return nil, fmt.Errorf("codegen: spilling stalled at %d registers over a %d-entry file — the block holds too many simultaneously live(-out) values for this register file", over+maxRegs, maxRegs)
			}
		}
		victim := pickVictim(res.Schedule, worst)
		if victim == "" {
			return nil, fmt.Errorf("codegen: cluster %d needs %d registers (file holds %d) but no spillable long-lived value remains", worst, demand, maxRegs)
		}
		cur, bn, err = insertSpill(cur, bn, victim, nearUses(res, victim))
		if err != nil {
			return nil, err
		}
		spills++
		res, err = bind.Evaluate(cur, dp, bn)
		if err != nil {
			return nil, err
		}
	}
}

// pickVictim chooses the value to spill in the given cluster: the regular
// operation with the longest live interval (spilling it frees a register
// for the longest stretch). Moves and existing spill code are not
// re-spilled; ties go to the lowest node ID. Returns the node's name in
// the original graph ("" if none).
func pickVictim(s *sched.Schedule, cluster int) string {
	best, bestSpan := "", 1 // require span > 1: a value dying immediately frees nothing
	for id, iv := range intervals(s) {
		n := s.Graph.Node(id)
		if s.Cluster[id] != cluster {
			continue
		}
		switch n.Op() {
		case dfg.OpMove, dfg.OpStore, dfg.OpLoad:
			continue
		}
		if span := iv.end - iv.start; span > bestSpan {
			best, bestSpan = n.Name(), span
		}
	}
	return best
}

// nearUses lists the victim's consumers that issue within a couple of
// cycles of its definition in the current schedule: redirecting those to
// a reload would put store+load latency straight onto what is often the
// critical path while freeing the register for almost no time, so they
// keep reading the original value.
func nearUses(res *bind.Result, victim string) map[string]bool {
	const window = 2
	s := res.Schedule
	v := res.Bound.NodeByName(victim)
	if v == nil {
		return nil
	}
	near := make(map[string]bool)
	for _, u := range v.Succs() {
		if u.IsMove() {
			continue // moves are re-derived from the binding each pass
		}
		if s.Start[u.ID()] <= s.Finish(v)+window {
			near[u.Name()] = true
		}
	}
	return near
}

// insertSpill rebuilds the original graph with a store after the named
// node and a separate reload per distant consumer ("spill everywhere"):
// each reload serves exactly one use, so — with reloads scheduled as late
// as dependences allow — the spilled value's register residency collapses
// to a few cycles around each distant use. Consumers listed in direct
// keep reading the original value. The returned binding covers the new
// graph, placing all spill code in the victim's cluster.
func insertSpill(g *dfg.Graph, bn []int, victim string, direct map[string]bool) (*dfg.Graph, []int, error) {
	v := g.NodeByName(victim)
	if v == nil {
		return nil, nil, fmt.Errorf("codegen: spill victim %q not in graph", victim)
	}
	b := dfg.NewBuilder(g.Name())
	inputs := make([]dfg.Value, g.NumInputs())
	for i := range inputs {
		inputs[i] = b.Input(g.InputName(i))
	}
	mapped := make([]dfg.Value, g.NumNodes())
	var slot dfg.Value
	var newBn []int
	nLoads := 0
	uniq := func(base string) string {
		for b.HasNode(base) || g.NodeByName(base) != nil {
			base += "'"
		}
		return base
	}
	reload := func() dfg.Value {
		nLoads++
		ld := b.Named(uniq(fmt.Sprintf("%s.ld%d", v.Name(), nLoads)), dfg.OpLoad, 0, slot)
		newBn = append(newBn, bn[v.ID()])
		return ld
	}
	for _, n := range dfg.TopoOrder(g) {
		operands := make([]dfg.Value, len(n.Operands()))
		var fromVictim []int
		for i, o := range n.Operands() {
			switch {
			case o.IsInput():
				operands[i] = inputs[o.Input()]
			case o.Node() == v && !direct[n.Name()]:
				fromVictim = append(fromVictim, i)
			case o.IsNode() && o.Node() == v:
				operands[i] = mapped[v.ID()]
			default:
				operands[i] = mapped[o.Node().ID()]
			}
		}
		if len(fromVictim) > 0 {
			// One reload per consumer, shared across its operand slots.
			ld := reload()
			for _, i := range fromVictim {
				operands[i] = ld
			}
		}
		nv := b.Named(n.Name(), n.Op(), n.Imm(), operands...)
		mapped[n.ID()] = nv
		newBn = append(newBn, bn[n.ID()])
		if n == v {
			st := b.Named(uniq(n.Name()+".st"), dfg.OpStore, 0, nv)
			slot = st
			newBn = append(newBn, bn[n.ID()])
		}
	}
	for _, o := range g.Outputs() {
		if o == v {
			b.Output(reload())
		} else {
			b.Output(mapped[o.ID()])
		}
	}
	ng := b.Graph()
	// newBn was appended in creation order, which is ID order.
	if len(newBn) != ng.NumNodes() {
		return nil, nil, fmt.Errorf("codegen: internal error sizing spilled binding")
	}
	return ng, newBn, nil
}
