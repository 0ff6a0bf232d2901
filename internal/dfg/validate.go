package dfg

import "fmt"

// Validate checks the structural invariants of a graph:
//
//   - dense, consistent node IDs;
//   - unique names consistent with the byName index;
//   - operand counts matching each node's operation type;
//   - operand references to declared inputs / in-graph nodes;
//   - pred/succ adjacency mutually consistent and duplicate-free;
//   - acyclicity;
//   - move bookkeeping (NumMoves, TransferFor only on moves).
//
// Builder output always validates; Validate guards graphs arriving from
// the text format or from hand-rolled test fixtures.
func Validate(g *Graph) error {
	if g == nil {
		return fmt.Errorf("dfg: nil graph")
	}
	for i, n := range g.nodes {
		if n == nil {
			return fmt.Errorf("dfg: nil node at index %d", i)
		}
		if n.id != i {
			return fmt.Errorf("dfg: node %q has ID %d at index %d", n.name, n.id, i)
		}
		if g.byName[n.name] != n {
			return fmt.Errorf("dfg: node %q not indexed by name", n.name)
		}
	}
	if len(g.byName) != len(g.nodes) {
		return fmt.Errorf("dfg: name index has %d entries for %d nodes", len(g.byName), len(g.nodes))
	}
	// With IDs checked dense, a node belongs to g exactly when g's slot
	// for its ID holds it, and one mark slice stamped with a fresh
	// generation per adjacency list finds duplicates.
	v := validator{g: g, mark: make([]uint32, len(g.nodes))}
	moves := 0
	for _, n := range g.nodes {
		if n.op == OpInvalid || n.op >= numOpTypes {
			return fmt.Errorf("dfg: node %q has invalid op", n.name)
		}
		if got, want := len(n.operands), n.op.NumOperands(); got != want {
			return fmt.Errorf("dfg: node %q (%s) has %d operands, want %d", n.name, n.op, got, want)
		}
		for _, o := range n.operands {
			switch {
			case o.IsInput():
				if o.input >= len(g.inputs) {
					return fmt.Errorf("dfg: node %q references undeclared input %d", n.name, o.input)
				}
			case o.IsNode():
				if !v.inGraph(o.node) {
					return fmt.Errorf("dfg: node %q references foreign node %q", n.name, o.node.name)
				}
			default:
				return fmt.Errorf("dfg: node %q has a zero operand", n.name)
			}
		}
		if n.op == OpMove {
			moves++
			if n.xferFor != nil && !v.inGraph(n.xferFor) {
				return fmt.Errorf("dfg: move %q transfers for foreign node", n.name)
			}
		} else if n.xferFor != nil {
			return fmt.Errorf("dfg: non-move node %q has TransferFor set", n.name)
		}
		if err := v.checkAdjacency(n); err != nil {
			return err
		}
	}
	if moves != g.numMoves {
		return fmt.Errorf("dfg: graph records %d moves but contains %d", g.numMoves, moves)
	}
	for _, o := range g.outputs {
		if !v.inGraph(o) {
			return fmt.Errorf("dfg: output node %q not in graph", o.name)
		}
		if !o.output {
			return fmt.Errorf("dfg: output list contains unmarked node %q", o.name)
		}
	}
	listed := v.next()
	for _, o := range g.outputs {
		v.mark[o.id] = listed
	}
	for _, n := range g.nodes {
		if n.output && v.mark[n.id] != listed {
			return fmt.Errorf("dfg: node %q marked output but absent from output list", n.name)
		}
	}
	// TopoOrder panics on cycles; a parsed graph may contain one, so probe
	// via Kahn's algorithm directly.
	if err := checkAcyclic(g); err != nil {
		return err
	}
	return nil
}

// validator is one Validate call's scratch: mark[id] == gen marks node
// id as seen in the list being scanned under generation gen.
type validator struct {
	g    *Graph
	mark []uint32
	gen  uint32
}

func (v *validator) inGraph(n *Node) bool {
	return n != nil && n.id >= 0 && n.id < len(v.g.nodes) && v.g.nodes[n.id] == n
}

// next starts a new generation: every mark from earlier lists is stale.
func (v *validator) next() uint32 {
	v.gen++
	return v.gen
}

func (v *validator) checkAdjacency(n *Node) error {
	seenP := v.next()
	for _, p := range n.preds {
		if !v.inGraph(p) {
			return fmt.Errorf("dfg: node %q has foreign pred %q", n.name, p.name)
		}
		if v.mark[p.id] == seenP {
			return fmt.Errorf("dfg: node %q lists pred %q twice", n.name, p.name)
		}
		v.mark[p.id] = seenP
		found := false
		for _, o := range n.operands {
			if o.node == p {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("dfg: node %q lists pred %q that is not an operand", n.name, p.name)
		}
		found = false
		for _, s := range p.succs {
			if s == n {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("dfg: pred %q does not list %q as succ", p.name, n.name)
		}
	}
	for _, o := range n.operands {
		if o.IsNode() && v.mark[o.node.id] != seenP {
			return fmt.Errorf("dfg: operand %q of node %q missing from preds", o.node.name, n.name)
		}
	}
	seenS := v.next()
	for _, s := range n.succs {
		if !v.inGraph(s) {
			return fmt.Errorf("dfg: node %q has foreign succ %q", n.name, s.name)
		}
		if v.mark[s.id] == seenS {
			return fmt.Errorf("dfg: node %q lists succ %q twice", n.name, s.name)
		}
		v.mark[s.id] = seenS
	}
	return nil
}

func checkAcyclic(g *Graph) error {
	indeg := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		indeg[n.id] = len(n.preds)
	}
	queue := make([]int, 0, len(g.nodes))
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	done := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		done++
		for _, s := range g.nodes[id].succs {
			indeg[s.id]--
			if indeg[s.id] == 0 {
				queue = append(queue, s.id)
			}
		}
	}
	if done != len(g.nodes) {
		return fmt.Errorf("dfg: graph %q contains a dependence cycle", g.name)
	}
	return nil
}
