package problem

import (
	"fmt"
	"slices"
	"strconv"

	"vliwbind/internal/dfg"
)

// BuildBound converts an original graph plus a binding into the bound
// form of Figure 1 in the paper: every dependence that crosses clusters
// gets an explicit move operation. A value transferred to a cluster once
// is reused by all consumers there (one move per producer/destination
// pair). It returns the bound graph and the bound binding, where each
// move carries its destination cluster.
//
// The original graph is not modified; bound nodes keep their original
// names, and each move is named t<k> in insertion order, matching the
// paper's t1 notation. The Evaluator's virtual scheduling replicates
// this construction exactly — node for node, ID for ID — without
// building the graph; BuildBound is the materialized form for solutions
// a caller keeps.
func BuildBound(g *dfg.Graph, binding []int) (*dfg.Graph, []int, error) {
	if len(binding) != g.NumNodes() {
		return nil, nil, fmt.Errorf("problem: binding has %d entries for %d nodes", len(binding), g.NumNodes())
	}
	if g.NumMoves() != 0 {
		return nil, nil, fmt.Errorf("problem: BuildBound expects an original graph; %q already has moves", g.Name())
	}
	// One move per producer and foreign cluster among its consumers'.
	moves := 0
	for _, u := range g.Nodes() {
		succs := u.Succs()
		for i, s := range succs {
			c := binding[s.ID()]
			if c != binding[u.ID()] && !slices.ContainsFunc(succs[:i], func(p *dfg.Node) bool { return binding[p.ID()] == c }) {
				moves++
			}
		}
	}
	b := dfg.NewBuilder(g.Name())
	b.Grow(g.NumNodes() + moves)
	inputs := make([]dfg.Value, g.NumInputs())
	for i := range inputs {
		inputs[i] = b.Input(g.InputName(i))
	}
	// mapped[id] is the bound-graph value of original node id in its home
	// cluster. Its transfer into cluster c, once made, is the move among
	// that value's consumers bound to c: a value has few consumers, so a
	// scan of them replaces a (producer, cluster) table.
	mapped := make([]dfg.Value, g.NumNodes())
	movedTo := func(u dfg.Value, c int, boundBinding []int) (dfg.Value, bool) {
		for _, s := range u.Node().Succs() {
			if s.IsMove() && boundBinding[s.ID()] == c {
				return dfg.ValueOf(s), true
			}
		}
		return dfg.Value{}, false
	}
	boundBinding := make([]int, 0, g.NumNodes()+moves)
	var operands [2]dfg.Value // no operation takes more
	nMoves := 0

	for _, n := range dfg.TopoOrder(g) {
		c := binding[n.ID()]
		ops := operands[:len(n.Operands())]
		for i, o := range n.Operands() {
			if o.IsInput() {
				// Block inputs are assumed available where needed at
				// entry; binding only manages values produced inside
				// the block (paper, Section 2).
				ops[i] = inputs[o.Input()]
				continue
			}
			u := o.Node()
			if binding[u.ID()] == c {
				ops[i] = mapped[u.ID()]
				continue
			}
			mv, ok := movedTo(mapped[u.ID()], c, boundBinding)
			if !ok {
				nMoves++
				name := "t" + strconv.Itoa(nMoves)
				for b.HasNode(name) || g.NodeByName(name) != nil {
					name += "'"
				}
				mv = b.NamedMove(name, mapped[u.ID()])
				boundBinding = append(boundBinding, c)
			}
			ops[i] = mv
		}
		v := b.Named(n.Name(), n.Op(), n.Imm(), ops...)
		mapped[n.ID()] = v
		boundBinding = append(boundBinding, c)
	}
	// Mark live-outs afterwards, in the original graph's output order, so
	// Outputs() of the bound graph corresponds index-for-index with the
	// original's (simulation results stay comparable).
	for _, n := range g.Outputs() {
		b.Output(mapped[n.ID()])
	}
	bg := b.Graph()
	// boundBinding was appended in creation order, which is the builder's
	// node ID order, so it is already indexed correctly.
	if len(boundBinding) != bg.NumNodes() {
		return nil, nil, fmt.Errorf("problem: internal error: %d binding entries for %d bound nodes", len(boundBinding), bg.NumNodes())
	}
	return bg, boundBinding, nil
}
