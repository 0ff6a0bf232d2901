package vliwsim_test

// The simulator vliwsim.Execute replaced (map-keyed unit bookings, a
// reflective issue sort, an operand slice per op and a trace always
// built), kept verbatim (renamed) as a frozen reference:
// TestExecuteMatchesReference holds the flat-array version to it on the
// audit corpus.

import (
	"fmt"
	"sort"

	"vliwbind/internal/dfg"
	"vliwbind/internal/sched"
	"vliwbind/internal/vliwsim"
)

// refExecute runs the schedule on concrete inputs and returns the values of
// the graph's outputs (in output order) plus the execution trace. External
// inputs are modeled as preloaded into every cluster's register file, per
// the paper's block-level abstraction; every internal value must reach a
// consuming cluster through execution or an explicit move.
func refExecute(s *sched.Schedule, inputs []float64) ([]float64, *vliwsim.Trace, error) {
	g, dp := s.Graph, s.Datapath
	if len(inputs) != g.NumInputs() {
		return nil, nil, fmt.Errorf("vliwsim: graph has %d inputs, got %d", g.NumInputs(), len(inputs))
	}

	// availAt[c][id] is the cycle the value of node id becomes readable
	// in cluster c; -1 when it never does.
	nc := dp.NumClusters()
	availAt := make([][]int, nc)
	for c := range availAt {
		availAt[c] = make([]int, g.NumNodes())
		for i := range availAt[c] {
			availAt[c][i] = -1
		}
	}
	vals := make([]float64, g.NumNodes())

	// Issue in time order; ties in dependence (ID) order so producers
	// precede same-cycle consumers in the loop (legal only for lat >= 1,
	// which machine enforces).
	order := append([]*dfg.Node(nil), g.Nodes()...)
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := s.Start[order[i].ID()], s.Start[order[j].ID()]
		if si != sj {
			return si < sj
		}
		return order[i].ID() < order[j].ID()
	})

	// Functional units are booked in issue order, so one busy-until
	// cycle (exclusive) per unit suffices.
	type unitKey struct {
		cluster int
		fu      dfg.FUType
		unit    int
	}
	busyUntil := make(map[unitKey]int)
	// Interconnect channels are booked per cycle instead: a move books
	// its later hops ahead of the issue order, and a hop of another move
	// may still legally fit in front of them. chanHeld[ch][t] is the
	// move hop holding channel ch in cycle t.
	type hold struct {
		move *dfg.Node
		hop  int
	}
	chanHeld := make([][]hold, dp.NumBuses())

	trace := &vliwsim.Trace{}
	readArg := func(n *dfg.Node, v dfg.Value, c, cycle int) (float64, error) {
		if v.IsInput() {
			return inputs[v.Input()], nil
		}
		u := v.Node()
		at := availAt[c][u.ID()]
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

	for _, n := range order {
		cycle := s.Start[n.ID()]
		if cycle < 0 {
			return nil, nil, fmt.Errorf("vliwsim: node %s was never scheduled", n.Name())
		}
		lat := dp.Latency(n.Op())
		if n.IsMove() {
			src := n.TransferFor()
			if src == nil {
				return nil, nil, fmt.Errorf("vliwsim: move %s has no producer metadata", n.Name())
			}
			from := s.Cluster[src.ID()]
			dest := s.Cluster[n.ID()]
			x, err := readArg(n, n.Operands()[0], from, cycle)
			if err != nil {
				return nil, nil, err
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
					return nil, nil, fmt.Errorf("vliwsim: move %s records %d hop channels for a %d-hop c%d→c%d route",
						n.Name(), len(chans), len(route), from, dest)
				}
				lat = len(route) * dp.MoveLat()
			}
			for h, ch := range chans {
				if route != nil && dp.LinkOfChannel(ch) != route[h] {
					return nil, nil, fmt.Errorf("vliwsim: move %s hop %d on channel %d, which is not on link %s",
						n.Name(), h, ch, dp.LinkName(route[h]))
				}
				if ch < 0 || ch >= len(chanHeld) {
					return nil, nil, fmt.Errorf("vliwsim: move %s hop %d on channel %d, which does not exist", n.Name(), h, ch)
				}
				at := cycle + h*dp.MoveLat()
				for t := at; t < at+dp.MoveDII(); t++ {
					for len(chanHeld[ch]) <= t {
						chanHeld[ch] = append(chanHeld[ch], hold{})
					}
					if prev := chanHeld[ch][t]; prev.move != nil {
						return nil, nil, fmt.Errorf("vliwsim: channel %d busy at cycle %d: move %s hop %d collides with move %s hop %d",
							ch, t, n.Name(), h, prev.move.Name(), prev.hop)
					}
					chanHeld[ch][t] = hold{n, h}
				}
			}
			vals[n.ID()] = x
			availAt[dest][n.ID()] = cycle + lat
			// The transported producer value itself also becomes usable
			// in the destination cluster: consumers reference the move
			// node, but availability of the underlying datum is what the
			// register file holds.
			if availAt[dest][src.ID()] < 0 || availAt[dest][src.ID()] > cycle+lat {
				availAt[dest][src.ID()] = cycle + lat
			}
			trace.Events = append(trace.Events, vliwsim.Event{cycle, dest, s.Unit[n.ID()], n, x})
		} else {
			c := s.Cluster[n.ID()]
			if !dp.Supports(c, n.Op()) {
				return nil, nil, fmt.Errorf("vliwsim: %s (%s) issued in cluster %d with no %s unit",
					n.Name(), n.Op(), c, n.FUType())
			}
			args := make([]float64, len(n.Operands()))
			for i, v := range n.Operands() {
				x, err := readArg(n, v, c, cycle)
				if err != nil {
					return nil, nil, err
				}
				args[i] = x
			}
			key := unitKey{c, n.FUType(), s.Unit[n.ID()]}
			if busyUntil[key] > cycle {
				return nil, nil, fmt.Errorf("vliwsim: cluster %d %s unit %d busy at cycle %d (%s)",
					c, n.FUType(), s.Unit[n.ID()], cycle, n.Name())
			}
			busyUntil[key] = cycle + dp.DII(n.Op())
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
				return nil, nil, fmt.Errorf("vliwsim: unexecutable op %s", n.Op())
			}
			vals[n.ID()] = y
			availAt[c][n.ID()] = cycle + lat
			trace.Events = append(trace.Events, vliwsim.Event{cycle, c, s.Unit[n.ID()], n, y})
		}
		if end := cycle + lat; end > trace.Cycles {
			trace.Cycles = end
		}
	}
	if trace.Cycles != s.L {
		return nil, nil, fmt.Errorf("vliwsim: executed length %d disagrees with schedule L=%d", trace.Cycles, s.L)
	}

	outs := make([]float64, len(g.Outputs()))
	for i, n := range g.Outputs() {
		outs[i] = vals[n.ID()]
	}
	return outs, trace, nil
}
