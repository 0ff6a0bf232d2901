package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"vliwbind"
)

// criticalPath is g's longest dependence chain in cycles under dp's
// operation latencies: the schedule-length floor sched_len_ratio is
// normalized by. vbench computes it itself so that a change to the
// binder's own bounds cannot move a quality metric.
func criticalPath(g *vliwbind.Graph, dp *vliwbind.Datapath) int {
	finish := make([]int, g.NumNodes())
	cp := 0
	for _, n := range g.Nodes() { // dependence order
		start := 0
		for _, p := range n.Preds() {
			start = max(start, finish[p.ID()])
		}
		finish[n.ID()] = start + dp.Latency(n.Op())
		cp = max(cp, finish[n.ID()])
	}
	return cp
}

// printGraph renders g in the .dfg text format.
func printGraph(g *vliwbind.Graph) string {
	var sb strings.Builder
	_ = vliwbind.PrintGraph(&sb, g) // a strings.Builder never fails
	return sb.String()
}

// chainGraph is a serial chain of n additions, v(k) = v(k−1) + y.
func chainGraph(name string, n int) (*vliwbind.Graph, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "dfg %s\nin x y\nop v0 add x y\n", name)
	for k := 1; k < n; k++ {
		fmt.Fprintf(&b, "op v%d add v%d y\n", k, k-1)
	}
	fmt.Fprintf(&b, "out v%d\n", n-1)
	return vliwbind.ParseGraphString(b.String())
}

// renamed prints an isomorphic copy of the original graph g in the .dfg
// format under a new name: fresh input and op names, inputs declared in
// a shuffled order, ops in a random topological order, and the operands
// of commutative ops swapped at random. The result store's canonical
// form ignores all of these, so the copy is served from the original's
// store entry, but it exercises parsing and canonicalization like a new
// client's request would.
func renamed(g *vliwbind.Graph, name string, rng *rand.Rand) string {
	nodes := g.Nodes()
	inName := make([]string, g.NumInputs())
	for i, k := range rng.Perm(len(inName)) {
		inName[k] = "i" + strconv.Itoa(i)
	}
	// Kahn's algorithm, taking a random ready node each step.
	waiting := make([]int, len(nodes))
	var ready []int
	for _, n := range nodes {
		waiting[n.ID()] = len(n.Preds())
		if waiting[n.ID()] == 0 {
			ready = append(ready, n.ID())
		}
	}
	opName := make([]string, len(nodes))
	var b strings.Builder
	fmt.Fprintf(&b, "dfg %s\nin", name)
	for _, k := range rng.Perm(len(inName)) {
		b.WriteString(" " + inName[k])
	}
	b.WriteByte('\n')
	for next := 0; len(ready) > 0; next++ {
		k := rng.Intn(len(ready))
		id := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		n := nodes[id]
		opName[id] = "v" + strconv.Itoa(next)
		fmt.Fprintf(&b, "op %s %s", opName[id], n.Op())
		if n.Op().HasImm() {
			b.WriteString(" " + strconv.FormatFloat(n.Imm(), 'g', -1, 64))
		}
		ops := append([]vliwbind.Value(nil), n.Operands()...)
		if (n.Op() == vliwbind.OpAdd || n.Op() == vliwbind.OpMul) && rng.Intn(2) == 0 {
			ops[0], ops[1] = ops[1], ops[0]
		}
		for _, v := range ops {
			if v.IsInput() {
				b.WriteString(" " + inName[v.Input()])
			} else {
				b.WriteString(" " + opName[v.Node().ID()])
			}
		}
		b.WriteByte('\n')
		for _, s := range n.Succs() {
			if waiting[s.ID()]--; waiting[s.ID()] == 0 {
				ready = append(ready, s.ID())
			}
		}
	}
	b.WriteString("out")
	outs := g.Outputs()
	for _, k := range rng.Perm(len(outs)) {
		b.WriteString(" " + opName[outs[k].ID()])
	}
	b.WriteByte('\n')
	return b.String()
}
