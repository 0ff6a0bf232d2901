package schedtest

import (
	"fmt"
	"sort"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/sched"
)

// ListSortRef is the sort-based list scheduler sched.List replaced,
// frozen as the test oracle for the rank-once design: it re-sorts the
// ready list every cycle (and once more after every issuing pass) under
// the paper's priority, exactly as production code did before the
// ReadySet existed. CheckEvaluator holds both sched.List and
// problem.Evaluator to it on bus, point-to-point and ring machines. Do
// not fix or improve this copy; its value is that it does not change.
func ListSortRef(g *dfg.Graph, dp *machine.Datapath, binding []int) (*sched.Schedule, error) {
	if len(binding) != g.NumNodes() {
		return nil, fmt.Errorf("sched: binding has %d entries for %d nodes", len(binding), g.NumNodes())
	}
	// routes[id] is the hop list (link ids) each move traverses under
	// this binding; resolved once up front so routing failures surface
	// as errors before any scheduling work.
	routes := make([][]int, g.NumNodes())
	for _, n := range g.Nodes() {
		c := binding[n.ID()]
		if c < 0 || c >= dp.NumClusters() {
			return nil, fmt.Errorf("sched: node %s bound to invalid cluster %d", n.Name(), c)
		}
		if n.IsMove() {
			if dp.NumBuses() == 0 {
				return nil, fmt.Errorf("sched: move %s but datapath has no interconnect", n.Name())
			}
			r, err := moveRoute(dp, n, binding)
			if err != nil {
				return nil, err
			}
			routes[n.ID()] = r
			continue
		}
		if !dp.Supports(c, n.Op()) {
			return nil, fmt.Errorf("sched: node %s (%s) bound to cluster %d with no %s units",
				n.Name(), n.Op(), c, n.FUType())
		}
	}

	moveLat, moveDII := dp.MoveLat(), dp.MoveDII()
	// latOf charges moves MoveLat per hop; on single-hop machines this is
	// exactly dp.Latency, so ASAP/ALAP levels — and with them every
	// priority decision — match the scalar-bus scheduler bit for bit.
	latOf := func(n *dfg.Node) int {
		if n.IsMove() {
			return len(routes[n.ID()]) * moveLat
		}
		return dp.Latency(n.Op())
	}
	times := dfg.AnalyzeNodes(g, latOf, 0)
	nodes := g.Nodes()
	// prio sorts candidate nodes for each cycle; smaller is more urgent.
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

	// unitFree[c][t] lists, per functional unit, the first cycle at which
	// it can issue again. chanFree is the same for interconnect channels,
	// laid out globally and partitioned by link (dp.LinkOffset); on the
	// shared bus the single link's partition is the whole pool, which is
	// the pre-interconnect busFree array unchanged.
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
	chanFree := make([]int, dp.NumBuses())
	linkPool := func(l int) []int {
		off := dp.LinkOffset(l)
		return chanFree[off : off+dp.LinkCapacity(l)]
	}

	unscheduled := len(nodes)
	pendingPreds := make([]int, len(nodes))
	ready := make([]*dfg.Node, 0, len(nodes))
	// earliest[id] is the data-ready cycle of a node whose preds have all
	// been scheduled. Spill reloads (OpLoad) are additionally held back
	// to their ALAP level — reloading as late as dependences allow is
	// what makes a spill actually shorten its value's register residency.
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

	// Deterministic stall guard bound: every op eventually issues because
	// each has at least one supporting unit (and every move a nonempty
	// route), so the schedule length is bounded by the critical path plus
	// the sum of all per-hop dii and latency values.
	work := 0
	for _, n := range g.Nodes() {
		if n.IsMove() {
			work += len(routes[n.ID()]) * (moveDII + moveLat)
		} else {
			work += dp.DII(n.Op()) + dp.Latency(n.Op())
		}
	}
	for cycle := 0; unscheduled > 0; cycle++ {
		if cycle > times.L+work+1 {
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
				if n.IsMove() {
					route := routes[n.ID()]
					// Hop h occupies a channel of link route[h] during
					// [cycle+h·MoveLat, +MoveDII) — store-and-forward with
					// no stop-over in intermediate register files. All hops
					// reserve together or not at all; shortest-path routes
					// never repeat a link, so the per-hop feasibility
					// probes are independent.
					ok := true
					for h, l := range route {
						if freeUnit(linkPool(l), cycle+h*moveLat) < 0 {
							ok = false
							break
						}
					}
					if !ok {
						rest = append(rest, n)
						continue
					}
					for h, l := range route {
						pool := linkPool(l)
						at := cycle + h*moveLat
						u := freeUnit(pool, at)
						pool[u] = at + moveDII
						ch := dp.LinkOffset(l) + u
						if h == 0 {
							s.Unit[n.ID()] = ch
						}
						if len(route) > 1 {
							if s.HopUnits == nil {
								s.HopUnits = make([][]int, len(nodes))
							}
							s.HopUnits[n.ID()] = append(s.HopUnits[n.ID()], ch)
						}
					}
				} else {
					pool := unitFree[binding[n.ID()]][n.FUType()]
					u := freeUnit(pool, cycle)
					if u < 0 {
						rest = append(rest, n)
						continue
					}
					pool[u] = cycle + dp.DII(n.Op())
					s.Unit[n.ID()] = u
				}
				s.Start[n.ID()] = cycle
				fin := cycle + latOf(n)
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
							if f := s.Start[p.ID()] + latOf(p); f > e {
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
