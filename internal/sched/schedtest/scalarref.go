package schedtest

import (
	"fmt"
	"sort"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/sched"
)

// ListScalarRef is the pre-interconnect list scheduler, frozen verbatim
// at the moment the route-aware refactor replaced it: moves draw from
// one scalar pool of NumBuses() interchangeable channels and always
// take lat(move), with no notion of links or routes. It exists for one
// purpose — the differential proof that the shared-bus fast path of the
// route-aware List is bit-identical to the legacy behavior (see
// TestSharedBusMatchesScalarReference) — and is only meaningful on
// machines whose topology is TopoBus, where "a channel" and "a channel
// of the one shared link" coincide. Do not fix or improve this copy;
// its value is that it does not change.
func ListScalarRef(g *dfg.Graph, dp *machine.Datapath, binding []int) (*sched.Schedule, error) {
	if len(binding) != g.NumNodes() {
		return nil, fmt.Errorf("sched: binding has %d entries for %d nodes", len(binding), g.NumNodes())
	}
	for _, n := range g.Nodes() {
		c := binding[n.ID()]
		if c < 0 || c >= dp.NumClusters() {
			return nil, fmt.Errorf("sched: node %s bound to invalid cluster %d", n.Name(), c)
		}
		if n.IsMove() {
			if dp.NumBuses() == 0 {
				return nil, fmt.Errorf("sched: move %s but datapath has no buses", n.Name())
			}
			continue
		}
		if !dp.Supports(c, n.Op()) {
			return nil, fmt.Errorf("sched: node %s (%s) bound to cluster %d with no %s units",
				n.Name(), n.Op(), c, n.FUType())
		}
	}

	times := dfg.Analyze(g, dp.Latency, 0)
	nodes := g.Nodes()
	less := func(a, b *dfg.Node) bool {
		if times.ALAP[a.ID()] != times.ALAP[b.ID()] {
			return times.ALAP[a.ID()] < times.ALAP[b.ID()]
		}
		ma, mb := times.Mobility(a), times.Mobility(b)
		if ma != mb {
			return ma < mb
		}
		if a.NumConsumers() != b.NumConsumers() {
			return a.NumConsumers() > b.NumConsumers()
		}
		return a.ID() < b.ID()
	}

	s := &sched.Schedule{
		Graph:    g,
		Datapath: dp,
		Start:    make([]int, len(nodes)),
		Cluster:  append([]int(nil), binding...),
		Unit:     make([]int, len(nodes)),
	}
	for i := range s.Start {
		s.Start[i] = -1
	}

	unitFree := make([][][]int, dp.NumClusters())
	for c := range unitFree {
		unitFree[c] = make([][]int, dfg.NumFUTypes)
		for t := 1; t < dfg.NumFUTypes; t++ {
			ft := dfg.FUType(t)
			if ft == dfg.FUBus {
				continue
			}
			unitFree[c][t] = make([]int, dp.NumFU(c, ft))
		}
	}
	busFree := make([]int, dp.NumBuses())

	unscheduled := len(nodes)
	pendingPreds := make([]int, len(nodes))
	ready := make([]*dfg.Node, 0, len(nodes))
	earliest := make([]int, len(nodes))
	for _, n := range nodes {
		pendingPreds[n.ID()] = len(n.Preds())
		if pendingPreds[n.ID()] == 0 {
			if n.Op() == dfg.OpLoad {
				earliest[n.ID()] = times.ALAP[n.ID()]
			}
			ready = append(ready, n)
		}
	}

	scalarWork := 0
	for _, n := range g.Nodes() {
		scalarWork += dp.DII(n.Op()) + dp.Latency(n.Op())
	}
	for cycle := 0; unscheduled > 0; cycle++ {
		if cycle > times.L+scalarWork+1 {
			return nil, fmt.Errorf("sched: no progress by cycle %d; resource model inconsistent", cycle)
		}
		sort.SliceStable(ready, func(i, j int) bool { return less(ready[i], ready[j]) })
		issuedAny := true
		for issuedAny {
			issuedAny = false
			var rest, newlyReady []*dfg.Node
			for _, n := range ready {
				if earliest[n.ID()] > cycle {
					rest = append(rest, n)
					continue
				}
				var pool []int
				if n.IsMove() {
					pool = busFree
				} else {
					pool = unitFree[binding[n.ID()]][n.FUType()]
				}
				u := freeUnit(pool, cycle)
				if u < 0 {
					rest = append(rest, n)
					continue
				}
				pool[u] = cycle + dp.DII(n.Op())
				s.Start[n.ID()] = cycle
				s.Unit[n.ID()] = u
				fin := cycle + dp.Latency(n.Op())
				if fin > s.L {
					s.L = fin
				}
				unscheduled--
				issuedAny = true
				for _, succ := range n.Succs() {
					pendingPreds[succ.ID()]--
					if pendingPreds[succ.ID()] == 0 {
						e := 0
						for _, p := range succ.Preds() {
							if f := s.Start[p.ID()] + dp.Latency(p.Op()); f > e {
								e = f
							}
						}
						if succ.Op() == dfg.OpLoad && times.ALAP[succ.ID()] > e {
							e = times.ALAP[succ.ID()]
						}
						earliest[succ.ID()] = e
						newlyReady = append(newlyReady, succ)
					}
				}
			}
			ready = append(rest, newlyReady...)
			if issuedAny {
				sort.SliceStable(ready, func(i, j int) bool { return less(ready[i], ready[j]) })
			}
		}
	}
	return s, nil
}
