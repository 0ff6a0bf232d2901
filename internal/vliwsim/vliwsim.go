// Package vliwsim executes a bound-and-scheduled dataflow graph on a
// cycle-accurate model of the clustered datapath: per-cluster register
// files, functional-unit pipelines and bus channels. It is the end-to-end
// check of the whole stack — a schedule passes only if every operand is
// physically present in the consuming cluster's register file at issue
// time, every resource respects its capacity and data-introduction
// interval, and the computed outputs equal the reference dataflow
// evaluation (dfg.Eval).
//
// sched.Check verifies dependence and capacity arithmetic; Execute
// additionally catches cluster-placement errors (a value consumed in a
// cluster it was never produced in or transferred to), which is precisely
// the class of bug a binding algorithm can introduce.
package vliwsim

import (
	"cmp"
	"fmt"
	"slices"

	"vliwbind/internal/dfg"
	"vliwbind/internal/sched"
)

// Event records one issue in the execution trace.
type Event struct {
	Cycle   int
	Cluster int // destination cluster for moves
	Unit    int
	Node    *dfg.Node
	Value   float64 // result value (available at Cycle + lat)
}

// Trace is the cycle-ordered issue log of one execution.
type Trace struct {
	Events []Event
	Cycles int
}

// At returns the events issued at the given cycle.
func (t *Trace) At(cycle int) []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Cycle == cycle {
			out = append(out, e)
		}
	}
	return out
}

// Execute runs the schedule on concrete inputs and returns the values of
// the graph's outputs (in output order) plus the execution trace. External
// inputs are modeled as preloaded into every cluster's register file, per
// the paper's block-level abstraction; every internal value must reach a
// consuming cluster through execution or an explicit move.
func Execute(s *sched.Schedule, inputs []float64) ([]float64, *Trace, error) {
	trace := &Trace{Events: make([]Event, 0, s.Graph.NumNodes())}
	outs, err := run(s, inputs, trace)
	if err != nil {
		return nil, nil, err
	}
	return outs, trace, nil
}

// Outputs is Execute for a caller that only compares outputs: the same
// execution and checks, with no trace built.
func Outputs(s *sched.Schedule, inputs []float64) ([]float64, error) {
	return run(s, inputs, nil)
}

// run executes the schedule, appending one event per issue to trace
// unless it is nil.
func run(s *sched.Schedule, inputs []float64, trace *Trace) ([]float64, error) {
	g, dp := s.Graph, s.Datapath
	if len(inputs) != g.NumInputs() {
		return nil, fmt.Errorf("vliwsim: graph has %d inputs, got %d", g.NumInputs(), len(inputs))
	}

	// availAt[c*nn+id] is the cycle the value of node id becomes readable
	// in cluster c; -1 when it never does.
	nc, nn := dp.NumClusters(), g.NumNodes()
	availAt := make([]int, nc*nn)
	for i := range availAt {
		availAt[i] = -1
	}
	vals := make([]float64, nn)

	order, err := issueOrder(s)
	if err != nil {
		return nil, err
	}

	// Functional units are booked in issue order, so one busy-until
	// cycle (exclusive) per unit suffices; busyUntil[unitBase[c, fu] +
	// unit] lays every cluster's units out flat.
	unitBase := make([]int, nc*dfg.NumFUTypes)
	units := 0
	for c := 0; c < nc; c++ {
		for t := 1; t < dfg.NumFUTypes; t++ {
			if ft := dfg.FUType(t); ft != dfg.FUBus {
				unitBase[c*dfg.NumFUTypes+t] = units
				units += dp.NumFU(c, ft)
			}
		}
	}
	busyUntil := make([]int, units)
	// Interconnect channels are booked per cycle instead: a move books
	// its later hops ahead of the issue order, and a hop of another move
	// may still legally fit in front of them. chanHeld[ch][t] is the
	// move hop holding channel ch in cycle t; a row is sized for the
	// whole schedule on first use.
	type hold struct {
		move *dfg.Node
		hop  int
	}
	chanHeld := make([][]hold, dp.NumBuses())

	readArg := func(n *dfg.Node, v dfg.Value, c, cycle int) (float64, error) {
		if v.IsInput() {
			return inputs[v.Input()], nil
		}
		u := v.Node()
		at := availAt[c*nn+u.ID()]
		if at < 0 {
			return 0, fmt.Errorf("vliwsim: %s issues in cluster %d but operand %s never arrives there",
				n.Name(), c, u.Name())
		}
		if at > cycle {
			return 0, fmt.Errorf("vliwsim: %s issues at cycle %d but operand %s arrives in cluster %d only at %d",
				n.Name(), cycle, u.Name(), c, at)
		}
		return vals[u.ID()], nil
	}

	cycles := 0
	var args [2]float64 // no operation takes more operands
	for _, n := range order {
		cycle := s.Start[n.ID()]
		lat := dp.Latency(n.Op())
		if n.IsMove() {
			src := n.TransferFor()
			if src == nil {
				return nil, fmt.Errorf("vliwsim: move %s has no producer metadata", n.Name())
			}
			from := s.Cluster[src.ID()]
			dest := s.Cluster[n.ID()]
			x, err := readArg(n, n.Operands()[0], from, cycle)
			if err != nil {
				return nil, err
			}
			// Re-derive the route from the clusters alone — independent of
			// what the scheduler recorded — and walk it hop by hop: each
			// hop must ride a channel of the right link, and the value
			// only lands in the destination register file after the full
			// route latency. A schedule that claims a wrong route cannot
			// execute.
			route := dp.Route(from, dest)
			chans := []int{s.Unit[n.ID()]}
			if s.HopUnits != nil && s.HopUnits[n.ID()] != nil {
				chans = s.HopUnits[n.ID()]
			}
			if route != nil {
				if len(chans) != len(route) {
					return nil, fmt.Errorf("vliwsim: move %s records %d hop channels for a %d-hop c%d→c%d route",
						n.Name(), len(chans), len(route), from, dest)
				}
				lat = len(route) * dp.MoveLat()
			}
			for h, ch := range chans {
				if route != nil && dp.LinkOfChannel(ch) != route[h] {
					return nil, fmt.Errorf("vliwsim: move %s hop %d on channel %d, which is not on link %s",
						n.Name(), h, ch, dp.LinkName(route[h]))
				}
				if ch < 0 || ch >= len(chanHeld) {
					return nil, fmt.Errorf("vliwsim: move %s hop %d on channel %d, which does not exist", n.Name(), h, ch)
				}
				at := cycle + h*dp.MoveLat()
				if need := at + dp.MoveDII(); len(chanHeld[ch]) < need {
					chanHeld[ch] = append(chanHeld[ch], make([]hold, max(need, s.L+dp.MoveDII())-len(chanHeld[ch]))...)
				}
				for t := at; t < at+dp.MoveDII(); t++ {
					if prev := chanHeld[ch][t]; prev.move != nil {
						return nil, fmt.Errorf("vliwsim: channel %d busy at cycle %d: move %s hop %d collides with move %s hop %d",
							ch, t, n.Name(), h, prev.move.Name(), prev.hop)
					}
					chanHeld[ch][t] = hold{n, h}
				}
			}
			vals[n.ID()] = x
			availAt[dest*nn+n.ID()] = cycle + lat
			// The transported producer value itself also becomes usable
			// in the destination cluster: consumers reference the move
			// node, but availability of the underlying datum is what the
			// register file holds.
			if at := availAt[dest*nn+src.ID()]; at < 0 || at > cycle+lat {
				availAt[dest*nn+src.ID()] = cycle + lat
			}
			if trace != nil {
				trace.Events = append(trace.Events, Event{cycle, dest, s.Unit[n.ID()], n, x})
			}
		} else {
			c := s.Cluster[n.ID()]
			if !dp.Supports(c, n.Op()) {
				return nil, fmt.Errorf("vliwsim: %s (%s) issued in cluster %d with no %s unit",
					n.Name(), n.Op(), c, n.FUType())
			}
			for i, v := range n.Operands() {
				x, err := readArg(n, v, c, cycle)
				if err != nil {
					return nil, err
				}
				args[i] = x
			}
			u := s.Unit[n.ID()]
			if pool := dp.NumFU(c, n.FUType()); u < 0 || u >= pool {
				return nil, fmt.Errorf("vliwsim: %s issued on cluster %d %s unit %d, which does not exist (pool size %d)",
					n.Name(), c, n.FUType(), u, pool)
			}
			row := unitBase[c*dfg.NumFUTypes+int(n.FUType())] + u
			if busyUntil[row] > cycle {
				return nil, fmt.Errorf("vliwsim: cluster %d %s unit %d busy at cycle %d (%s)",
					c, n.FUType(), u, cycle, n.Name())
			}
			busyUntil[row] = cycle + dp.DII(n.Op())
			var y float64
			switch n.Op() {
			case dfg.OpAdd:
				y = args[0] + args[1]
			case dfg.OpSub:
				y = args[0] - args[1]
			case dfg.OpNeg:
				y = -args[0]
			case dfg.OpMul:
				y = args[0] * args[1]
			case dfg.OpMulImm:
				y = n.Imm() * args[0]
			case dfg.OpStore, dfg.OpLoad:
				// Spill traffic through the cluster's local memory; the
				// datum passes through unchanged.
				y = args[0]
			default:
				return nil, fmt.Errorf("vliwsim: unexecutable op %s", n.Op())
			}
			vals[n.ID()] = y
			availAt[c*nn+n.ID()] = cycle + lat
			if trace != nil {
				trace.Events = append(trace.Events, Event{cycle, c, u, n, y})
			}
		}
		cycles = max(cycles, cycle+lat)
	}
	if trace != nil {
		trace.Cycles = cycles
	}
	if cycles != s.L {
		return nil, fmt.Errorf("vliwsim: executed length %d disagrees with schedule L=%d", cycles, s.L)
	}

	outs := make([]float64, len(g.Outputs()))
	for i, n := range g.Outputs() {
		outs[i] = vals[n.ID()]
	}
	return outs, nil
}

// issueOrder lists the nodes in time order, ties in dependence (ID)
// order so producers precede same-cycle consumers in the loop (legal
// only for lat >= 1, which machine enforces). Start cycles in [0, L]
// are bucketed; a node with a negative start was never scheduled, and
// starts past L (a schedule that cannot be legal) fall back to a sort.
func issueOrder(s *sched.Schedule) ([]*dfg.Node, error) {
	nodes := s.Graph.Nodes()
	lo, hi := 0, 0
	for _, n := range nodes {
		lo, hi = min(lo, s.Start[n.ID()]), max(hi, s.Start[n.ID()])
	}
	if lo < 0 {
		for _, n := range nodes {
			if s.Start[n.ID()] == lo {
				return nil, fmt.Errorf("vliwsim: node %s was never scheduled", n.Name())
			}
		}
	}
	order := make([]*dfg.Node, len(nodes))
	if hi > s.L {
		copy(order, nodes)
		slices.SortStableFunc(order, func(x, y *dfg.Node) int {
			return cmp.Compare(s.Start[x.ID()], s.Start[y.ID()])
		})
		return order, nil
	}
	at := make([]int, hi+2)
	for _, n := range nodes {
		at[s.Start[n.ID()]+1]++
	}
	for t := 1; t < len(at); t++ {
		at[t] += at[t-1]
	}
	for _, n := range nodes {
		st := s.Start[n.ID()]
		order[at[st]] = n
		at[st]++
	}
	return order, nil
}

// Verify executes the schedule on the given inputs and checks the outputs
// against the reference dataflow evaluation of the graph, returning a
// descriptive error on any divergence.
func Verify(s *sched.Schedule, inputs []float64) error {
	got, err := Outputs(s, inputs)
	if err != nil {
		return err
	}
	want, err := dfg.EvalOutputs(s.Graph, inputs)
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("vliwsim: output %d = %v, reference evaluation says %v", i, got[i], want[i])
		}
	}
	return nil
}
