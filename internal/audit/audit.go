// Package audit mechanically certifies binding results against the full
// constraint system of the paper (Sections 2–3): a result is accepted only
// if its binding is well formed, its bound graph is exactly the canonical
// transfer-insertion of that binding (Figure 1), its schedule is legal on
// the concrete datapath — dependences, per-concrete-unit exclusivity and
// real bus channels, not just aggregate type capacity — its cycle-accurate
// execution reproduces the reference dataflow evaluation bit for bit, and
// its values fit allocated register files without clobbering. Every stage
// of the bind → schedule → simulate → allocate pipeline trusts the
// previous one; Audit trusts none of them.
//
// The checks deliberately overlap (sched.Check and vliwsim both examine
// resource usage, CheckAlloc re-derives liveness the allocator already
// computed): redundancy between independent implementations is what turns
// a latent bug in one of them into a visible disagreement.
package audit

import (
	"fmt"
	"math"
	"strconv"

	"vliwbind/internal/bind"
	"vliwbind/internal/codegen"
	"vliwbind/internal/dfg"
	"vliwbind/internal/modulo"
	"vliwbind/internal/sched"
	"vliwbind/internal/vliwsim"
)

// Audit cross-checks a complete binding result end to end. It returns nil
// only when every layer agrees: the binding is valid for the datapath, the
// bound graph and bound binding are exactly the canonical transfer
// insertion of (Graph, Binding) (checkBound), the schedule is legal per AuditSchedule, and the
// schedule register-allocates without clobbers per AuditAlloc.
func Audit(res *bind.Result) error {
	if res == nil {
		return fmt.Errorf("audit: nil result")
	}
	g, dp := res.Graph, res.Datapath
	if g == nil || dp == nil || res.Bound == nil || res.Schedule == nil {
		return fmt.Errorf("audit: result missing graph, datapath, bound graph or schedule")
	}
	if err := dfg.Validate(g); err != nil {
		return fmt.Errorf("audit: original graph invalid: %w", err)
	}

	// Binding validity: one existing cluster per node, able to run the op.
	if len(res.Binding) != g.NumNodes() {
		return fmt.Errorf("audit: binding has %d entries for %d nodes", len(res.Binding), g.NumNodes())
	}
	for _, n := range g.Nodes() {
		c := res.Binding[n.ID()]
		if c < 0 || c >= dp.NumClusters() {
			return fmt.Errorf("audit: node %s bound to nonexistent cluster %d", n.Name(), c)
		}
		if !dp.Supports(c, n.Op()) {
			return fmt.Errorf("audit: node %s (%s) bound to cluster %d with no %s unit",
				n.Name(), n.Op(), c, n.FUType())
		}
	}

	// The bound graph must be the canonical derivation, not merely some
	// graph that happens to schedule: derive it node for node and compare.
	if err := checkBound(res, dp.NumClusters()); err != nil {
		return err
	}
	if err := dfg.Validate(res.Bound); err != nil {
		return fmt.Errorf("audit: bound graph invalid: %w", err)
	}

	// The schedule must be of this bound graph on this datapath, with the
	// cluster assignment the bound binding claims.
	s := res.Schedule
	if s.Graph != res.Bound {
		return fmt.Errorf("audit: schedule is not over the result's bound graph")
	}
	if s.Datapath != dp {
		return fmt.Errorf("audit: schedule is not on the result's datapath")
	}
	if len(s.Cluster) != len(res.BoundBinding) {
		return fmt.Errorf("audit: schedule clusters have %d entries for %d bound nodes",
			len(s.Cluster), len(res.BoundBinding))
	}
	for i := range s.Cluster {
		if s.Cluster[i] != res.BoundBinding[i] {
			return fmt.Errorf("audit: schedule places node %s on cluster %d, bound binding says %d",
				res.Bound.Node(i).Name(), s.Cluster[i], res.BoundBinding[i])
		}
	}
	if err := AuditSchedule(s); err != nil {
		return err
	}

	// Register allocation: unbounded linear scan must succeed and be
	// clobber-free (bounded files are the caller's policy; see AuditAlloc).
	a, err := codegen.Allocate(s, 0)
	if err != nil {
		return fmt.Errorf("audit: register allocation failed: %w", err)
	}
	return AuditAlloc(s, a)
}

// AuditSchedule certifies one schedule: shape, static legality
// (dependences, cluster and concrete-unit validity, per-unit exclusivity
// on FUs and bus channels via sched.Check), a tight L, and cycle-accurate
// execution matching the reference dataflow evaluation bit for bit on
// deterministic probe inputs.
func AuditSchedule(s *sched.Schedule) error {
	if s == nil || s.Graph == nil || s.Datapath == nil {
		return fmt.Errorf("audit: nil schedule, graph or datapath")
	}
	g := s.Graph
	if len(s.Start) != g.NumNodes() || len(s.Cluster) != g.NumNodes() || len(s.Unit) != g.NumNodes() {
		return fmt.Errorf("audit: schedule arrays sized %d/%d/%d for %d nodes",
			len(s.Start), len(s.Cluster), len(s.Unit), g.NumNodes())
	}
	if err := sched.Check(s); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	// Check admits any L at or beyond the last finish; the figure of merit
	// must be exactly the makespan, or reported latencies are fiction.
	maxFin := 0
	for _, n := range g.Nodes() {
		if f := s.Finish(n); f > maxFin {
			maxFin = f
		}
	}
	if s.L != maxFin {
		return fmt.Errorf("audit: schedule claims L=%d but operations finish by %d", s.L, maxFin)
	}
	for _, in := range probeInputs(g.NumInputs()) {
		if err := simAgainstReference(s, in); err != nil {
			return err
		}
	}
	return nil
}

// probeInputs builds two deterministic input vectors of exact dyadic
// rationals: simulated and reference arithmetic must then agree bit for
// bit, since both evaluate the identical operations in identical operand
// order.
func probeInputs(n int) [][]float64 {
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = 1 + float64(i%13)*0.125
		x := (uint64(i) + 12345) * 2654435761
		b[i] = 0.5 + float64(x%1024)/1024
	}
	return [][]float64{a, b}
}

// simAgainstReference runs the cycle-accurate machine model and compares
// its outputs against dfg.EvalOutputs by bit pattern (so NaN compares
// equal to the same NaN and -0 differs from +0).
func simAgainstReference(s *sched.Schedule, inputs []float64) error {
	got, err := vliwsim.Outputs(s, inputs)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	want, err := dfg.EvalOutputs(s.Graph, inputs)
	if err != nil {
		return fmt.Errorf("audit: reference evaluation: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("audit: simulation produced %d outputs, reference %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("audit: output %d simulates to %v, reference evaluation says %v",
				i, got[i], want[i])
		}
	}
	return nil
}

// AuditAlloc certifies a register allocation for a schedule: well-formed
// register indices within each cluster's file, and a clobber-free replay
// of the whole schedule through the allocated files (codegen.CheckAlloc).
func AuditAlloc(s *sched.Schedule, a *codegen.Alloc) error {
	if s == nil || a == nil {
		return fmt.Errorf("audit: nil schedule or allocation")
	}
	if len(a.NumRegs) != s.Datapath.NumClusters() {
		return fmt.Errorf("audit: allocation covers %d clusters, datapath has %d",
			len(a.NumRegs), s.Datapath.NumClusters())
	}
	if len(a.Reg) != s.Graph.NumNodes() {
		return fmt.Errorf("audit: allocation has %d register entries for %d nodes", len(a.Reg), s.Graph.NumNodes())
	}
	for id, r := range a.Reg {
		c := s.Cluster[id]
		if c < 0 || c >= len(a.NumRegs) {
			return fmt.Errorf("audit: register entry for nonexistent cluster %d", c)
		}
		// -1 is "no register": a store's memory slot.
		if r < -1 || r >= a.NumRegs[c] {
			return fmt.Errorf("audit: node %d assigned register c%d.r%d beyond file size %d",
				id, c, r, a.NumRegs[c])
		}
	}
	if err := codegen.CheckAlloc(s, a); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}

// AuditPipelined certifies a modulo schedule: a well-formed loop, every
// steady-state move naming a body node, heading to a real foreign cluster,
// and issuing no earlier than its producer finishes — then the expanded
// dependence/capacity verification of modulo.Check over at least the given
// number of iterations.
func AuditPipelined(ps *modulo.PipelinedSchedule, iterations int) error {
	if ps == nil || ps.Loop == nil || ps.Datapath == nil {
		return fmt.Errorf("audit: nil pipelined schedule, loop or datapath")
	}
	if err := ps.Loop.Validate(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	body, dp := ps.Loop.Body, ps.Datapath
	if len(ps.Start) != body.NumNodes() || len(ps.Cluster) != body.NumNodes() {
		return fmt.Errorf("audit: pipelined arrays sized %d/%d for %d body nodes",
			len(ps.Start), len(ps.Cluster), body.NumNodes())
	}
	for i, m := range ps.Moves {
		if m.Prod == nil || body.Node(m.Prod.ID()) != m.Prod {
			return fmt.Errorf("audit: move %d does not name a loop-body node", i)
		}
		if m.Dest < 0 || m.Dest >= dp.NumClusters() {
			return fmt.Errorf("audit: move %d of %s heads to nonexistent cluster %d", i, m.Prod.Name(), m.Dest)
		}
		if m.Dest == ps.Cluster[m.Prod.ID()] {
			return fmt.Errorf("audit: move %d transfers %s to its own cluster %d", i, m.Prod.Name(), m.Dest)
		}
		if fin := ps.Start[m.Prod.ID()] + dp.Latency(m.Prod.Op()); m.Cycle < fin {
			return fmt.Errorf("audit: move %d puts %s on the bus at cycle %d before it finishes at %d",
				i, m.Prod.Name(), m.Cycle, fin)
		}
	}
	if err := modulo.Check(ps, iterations); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}

// checkBound certifies that res.Bound and res.BoundBinding are exactly
// the canonical transfer insertion of (res.Graph, res.Binding), Figure 1
// of the paper. Walking the original graph in topological order, each
// node is preceded by one move per cross-cluster producer whose value
// has not yet been transferred into the node's cluster (in operand
// order), and every later consumer in that cluster reuses the move. The
// k-th move is named t<k>, primed until no original node has the name;
// t<k> with primes never spells t<j> with primes for j ≠ k, so another
// move's name cannot collide.
//
// The expectation is derived here, bound node ID by ID, and compared
// with the result directly: this shares no code with problem.BuildBound,
// which built the result, so a fault there cannot hide behind itself.
// The binding is already checked to name existing clusters.
func checkBound(res *bind.Result, nc int) error {
	g, bg, bn := res.Graph, res.Bound, res.Binding
	if g.NumMoves() != 0 {
		return fmt.Errorf("audit: original graph %q already has moves", g.Name())
	}
	differs := func(format string, args ...any) error {
		return fmt.Errorf("audit: bound graph differs from canonical transfer insertion: "+format, args...)
	}
	if bg.Name() != g.Name() {
		return differs("graph name %q vs %q", bg.Name(), g.Name())
	}
	if bg.NumInputs() != g.NumInputs() {
		return differs("%d inputs vs %d", bg.NumInputs(), g.NumInputs())
	}
	for i := 0; i < g.NumInputs(); i++ {
		if bg.InputName(i) != g.InputName(i) {
			return differs("input %d named %q vs %q", i, bg.InputName(i), g.InputName(i))
		}
	}

	// at[id] is the bound ID of original node id; moved[u·nc+c] that of
	// u's move into cluster c, −1 until made (−2 while counting).
	nn := g.NumNodes()
	scratch := make([]int, nn*(nc+1))
	at, moved := scratch[:nn], scratch[nn:]
	for i := range moved {
		moved[i] = -1
	}
	want := nn
	for _, n := range g.Nodes() {
		for _, o := range n.Operands() {
			if k := moveKey(o, bn[n.ID()], bn, nc); k >= 0 && moved[k] == -1 {
				moved[k] = -2
				want++
			}
		}
	}
	if bg.NumNodes() != want {
		return differs("%d nodes vs %d", bg.NumNodes(), want)
	}

	operandName := func(gr *dfg.Graph, v dfg.Value) string {
		switch {
		case v.IsInput() && v.Input() < gr.NumInputs():
			return "in:" + gr.InputName(v.Input())
		case v.IsInput():
			return fmt.Sprintf("in:#%d", v.Input())
		case v.IsNode():
			return v.Node().Name()
		}
		return "<zero>"
	}
	// expect compares bound node id with the expected name, op and
	// immediate, and records the first cluster disagreement, which is
	// reported only once the whole structure matches.
	bbBad, bbWant := -1, 0
	expect := func(id int, name string, op dfg.OpType, imm float64, c int) (*dfg.Node, error) {
		gn := bg.Node(id)
		if gn == nil {
			return nil, differs("node %d is missing", id)
		}
		if gn.Name() != name || gn.Op() != op || gn.Imm() != imm {
			return nil, differs("node %d is %s/%s(imm %v) vs %s/%s(imm %v)",
				id, gn.Name(), gn.Op(), gn.Imm(), name, op, imm)
		}
		if bbBad < 0 && id < len(res.BoundBinding) && res.BoundBinding[id] != c {
			bbBad, bbWant = id, c
		}
		return gn, nil
	}
	next, nMoves := 0, 0
	var tName []byte
	for _, n := range dfg.TopoOrder(g) {
		c := bn[n.ID()]
		for _, o := range n.Operands() {
			k := moveKey(o, c, bn, nc)
			if k < 0 || moved[k] >= 0 {
				continue
			}
			nMoves++
			tName = strconv.AppendInt(append(tName[:0], 't'), int64(nMoves), 10)
			for g.NodeByName(string(tName)) != nil {
				tName = append(tName, '\'')
			}
			mv, err := expect(next, string(tName), dfg.OpMove, 0, c)
			if err != nil {
				return err
			}
			src := bg.Node(at[o.Node().ID()])
			if ops := mv.Operands(); len(ops) != 1 {
				return differs("node %s has %d operands vs 1", mv.Name(), len(ops))
			} else if ops[0].Node() != src {
				return differs("node %s operand 0 is %s vs %s", mv.Name(), operandName(bg, ops[0]), src.Name())
			}
			if mv.TransferFor() == nil {
				return differs("move %s lacks producer metadata", mv.Name())
			}
			if mv.TransferFor() != src {
				return differs("move %s transfers %s vs %s", mv.Name(), mv.TransferFor().Name(), src.Name())
			}
			moved[k] = next
			next++
		}
		imm := 0.0
		if n.Op().HasImm() {
			imm = n.Imm()
		}
		gn, err := expect(next, n.Name(), n.Op(), imm, c)
		if err != nil {
			return err
		}
		if len(gn.Operands()) != len(n.Operands()) {
			return differs("node %s has %d operands vs %d", n.Name(), len(gn.Operands()), len(n.Operands()))
		}
		for j, o := range n.Operands() {
			got := gn.Operands()[j]
			var wantNode *dfg.Node // the move, or the producer's bound copy
			if k := moveKey(o, c, bn, nc); k >= 0 {
				wantNode = bg.Node(moved[k])
			} else if o.IsNode() {
				wantNode = bg.Node(at[o.Node().ID()])
			}
			if wantNode == nil && !(got.IsInput() && got.Input() == o.Input()) ||
				wantNode != nil && got.Node() != wantNode {
				wantName := operandName(g, o)
				if wantNode != nil {
					wantName = wantNode.Name()
				}
				return differs("node %s operand %d is %s vs %s", n.Name(), j, operandName(bg, got), wantName)
			}
		}
		at[n.ID()] = next
		next++
	}
	if len(bg.Outputs()) != len(g.Outputs()) {
		return differs("%d outputs vs %d", len(bg.Outputs()), len(g.Outputs()))
	}
	for i, o := range g.Outputs() {
		if got := bg.Outputs()[i]; got != bg.Node(at[o.ID()]) {
			return differs("output %d is %s vs %s", i, got.Name(), o.Name())
		}
	}

	if len(res.BoundBinding) != want {
		return fmt.Errorf("audit: bound binding has %d entries, canonical derivation has %d",
			len(res.BoundBinding), want)
	}
	if bbBad >= 0 {
		return fmt.Errorf("audit: bound binding differs at node %s: cluster %d, canonical derivation says %d",
			bg.Node(bbBad).Name(), res.BoundBinding[bbBad], bbWant)
	}
	return nil
}

// moveKey is the (producer, cluster) slot of the move operand o needs in
// a consumer bound to cluster c, or −1 when o needs none: an input, or a
// value produced in c.
func moveKey(o dfg.Value, c int, bn []int, nc int) int {
	if !o.IsNode() || bn[o.Node().ID()] == c {
		return -1
	}
	return o.Node().ID()*nc + c
}
