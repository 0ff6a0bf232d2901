// Package sched implements a cluster-aware, resource-constrained list
// scheduler for bound dataflow graphs, plus a schedule legality checker and
// a text Gantt renderer. Its ready list, ReadySet, is also the core of
// problem.Evaluator, the allocation-free twin every binder scores
// candidate bindings with: the schedule latency L is the paper's primary
// figure of merit, and the completion profile supplies the Q_U quality
// vector of Section 3.2.
package sched

import (
	"fmt"
	"strconv"
	"strings"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
)

// Schedule is the result of list scheduling a bound graph on a datapath.
type Schedule struct {
	Graph    *dfg.Graph
	Datapath *machine.Datapath
	// Start holds each node's issue cycle, indexed by node ID.
	Start []int
	// Cluster holds each node's cluster, indexed by node ID. For move
	// nodes this is the destination cluster (where the value lands);
	// the move itself executes on the interconnect.
	Cluster []int
	// Unit holds the index of the functional unit (within its cluster
	// and FU type) that executes each node. For moves it is the global
	// interconnect channel of the first hop (on the shared bus, simply
	// the bus channel, exactly as before the interconnect abstraction).
	Unit []int
	// HopUnits holds, for moves routed across more than one link, the
	// global channel of every hop in route order (HopUnits[id][0] ==
	// Unit[id]). It is nil on single-hop machines — shared bus, point to
	// point, small rings — so their schedules compare deeply equal to
	// the pre-interconnect representation.
	HopUnits [][]int
	// L is the schedule latency: the cycle at which the last operation
	// (moves included) completes.
	L int

	// finish holds each node's completion cycle, recorded by List as
	// operations issue (nil for hand-built Schedule values, which fall
	// back to Start + latency).
	finish []int
	// profile is the full completion profile, computed eagerly by List
	// so a finished Schedule is immutable and safe to share across
	// goroutines. Hand-built Schedule values leave it nil; fullProfile
	// then recomputes per call instead of lazily writing the field,
	// which would be a data race on a shared Schedule.
	profile []int
}

// Finish returns the cycle at which node n's result becomes available.
func (s *Schedule) Finish(n *dfg.Node) int {
	if s.finish != nil {
		return s.finish[n.ID()]
	}
	return s.Start[n.ID()] + s.nodeLatency(n)
}

// nodeLatency is the route-aware latency of a scheduled node: moves pay
// MoveLat per hop of their route, everything else pays the operation
// latency. Degenerate moves (same-cluster, or unroutable — neither is
// produced by binding) fall back to the plain MoveLat the scalar bus
// model always charged.
func (s *Schedule) nodeLatency(n *dfg.Node) int {
	if n.IsMove() {
		if src := n.TransferFor(); src != nil {
			if rc := s.Datapath.RouteCost(s.Cluster[src.ID()], s.Cluster[n.ID()]); rc > 0 {
				return rc
			}
		}
	}
	return s.Datapath.Latency(n.Op())
}

// NumMoves is the number of data-transfer operations in the schedule.
func (s *Schedule) NumMoves() int { return s.Graph.NumMoves() }

// fullProfile returns the length-L completion profile. List-produced
// schedules carry it precomputed; repeated quality-vector constructions
// reuse that copy without re-walking the node list. For hand-built
// schedules the profile is recomputed on every call — never cached —
// so concurrent CompletionProfile calls on a shared Schedule are safe
// in both cases.
func (s *Schedule) fullProfile() []int {
	if s.profile != nil {
		return s.profile
	}
	return s.computeProfile()
}

// computeProfile walks the node list and tallies, for each step L−i,
// the regular (non-move) operations completing there.
func (s *Schedule) computeProfile() []int {
	u := make([]int, s.L)
	for _, n := range s.Graph.Nodes() {
		if n.IsMove() {
			continue
		}
		i := s.L - s.Finish(n)
		if i >= 0 && i < len(u) {
			u[i]++
		}
	}
	return u
}

// CompletionProfile returns the vector (U_0, U_1, …, U_{depth-1}) where
// U_i counts the regular (non-move) operations completing at step L−i.
// It is the tail of the paper's quality vector Q_U (Section 3.2, Fig. 6).
// If depth <= 0 the full profile of length L is returned. The returned
// slice is the caller's to keep.
func (s *Schedule) CompletionProfile(depth int) []int {
	if depth <= 0 || depth > s.L {
		depth = s.L
	}
	return append([]int(nil), s.fullProfile()[:depth]...)
}

// List schedules the (possibly bound) graph g on dp under the given
// binding. binding[id] gives the cluster of each node; for moves it names
// the destination cluster. Priorities follow the paper's ranking: ALAP
// level first, then mobility, then consumer count, with node ID as the
// deterministic tiebreak. The ranking is computed once and the ready
// list kept as a ReadySet, the core problem.Evaluator shares.
func List(g *dfg.Graph, dp *machine.Datapath, binding []int) (*Schedule, error) {
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

	s := &Schedule{
		Graph:    g,
		Datapath: dp,
		Start:    make([]int, len(nodes)),
		Cluster:  append([]int(nil), binding...),
		Unit:     make([]int, len(nodes)),
		finish:   make([]int, len(nodes)),
	}
	for i := range s.Start {
		s.Start[i] = -1
		s.finish[i] = -1
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

	// Deterministic stall guard bound: every op eventually issues because
	// each has at least one supporting unit (and every move a nonempty
	// route), so the schedule length is bounded by the critical path plus
	// the sum of all per-hop dii and latency values.
	work := 0
	for _, n := range nodes {
		if n.IsMove() {
			work += len(routes[n.ID()]) * (moveDII + moveLat)
		} else {
			work += dp.DII(n.Op()) + dp.Latency(n.Op())
		}
	}
	bound := times.L + work + 1

	// Rank every node once; the ready set then yields ready nodes in
	// priority order each cycle. Sources wait for cycle 0 — spill reloads
	// (OpLoad) for their ALAP level instead: reloading as late as
	// dependences allow is what makes a spill actually shorten its
	// value's register residency.
	keys := make([]int32, 3*len(nodes))
	asap, alap, cons := keys[:len(nodes)], keys[len(nodes):2*len(nodes)], keys[2*len(nodes):]
	pendingPreds := make([]int, len(nodes))
	for _, n := range nodes {
		id := n.ID()
		asap[id], alap[id] = int32(times.ASAP[id]), int32(times.ALAP[id])
		cons[id] = int32(n.NumConsumers())
		pendingPreds[id] = len(n.Preds())
	}
	var rs ReadySet
	rs.Reset(len(nodes), bound)
	rs.Rank(asap, alap, cons)
	for _, n := range nodes {
		if pendingPreds[n.ID()] == 0 {
			at := 0
			if n.Op() == dfg.OpLoad {
				at = times.ALAP[n.ID()]
			}
			rs.Park(int32(n.ID()), int32(at))
		}
	}

	// One issuing pass per cycle suffices: every latency and DII is ≥ 1
	// (machine.New enforces it), so an issue neither frees a unit nor
	// readies a successor within its own cycle.
	stalled := func(cycle int) error {
		return fmt.Errorf("sched: no progress by cycle %d; resource model inconsistent", cycle)
	}
	for cycle, unscheduled := 0, len(nodes); unscheduled > 0; cycle++ {
		if cycle > bound {
			return nil, stalled(cycle)
		}
		if cycle = int(rs.Advance(int32(cycle))); cycle < 0 {
			return nil, stalled(bound)
		}
		for r := rs.Next(0); r >= 0; r = rs.Next(r + 1) {
			n := g.Node(int(rs.Node(r)))
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
					continue
				}
				pool[u] = cycle + dp.DII(n.Op())
				s.Unit[n.ID()] = u
			}
			rs.Remove(r)
			s.Start[n.ID()] = cycle
			fin := cycle + latOf(n)
			s.finish[n.ID()] = fin
			if fin > s.L {
				s.L = fin
			}
			unscheduled--
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
					if e > bound {
						return nil, stalled(bound + 1)
					}
					rs.Park(int32(succ.ID()), int32(e))
				}
			}
		}
	}
	// Freeze the completion profile now: schedules are shared read-only
	// across goroutines (the binding engine's worker pool), so nothing
	// may be lazily written after List returns.
	s.profile = s.computeProfile()
	return s, nil
}

// freeUnit returns the index of a unit in pool free at the given cycle,
// preferring the one free longest (smallest next-free time), or -1.
func freeUnit(pool []int, cycle int) int {
	best, bestAt := -1, cycle+1
	for i, at := range pool {
		if at <= cycle && at < bestAt {
			best, bestAt = i, at
		}
	}
	return best
}

// moveRoute resolves the hop list a move traverses under binding: the
// datapath's precomputed route from its producer's cluster to its
// destination cluster. A degenerate same-cluster move (never produced
// by binding, but representable in hand-built inputs) keeps the legacy
// scalar-bus behavior — one hop on link 0 — and a cross-cluster move
// with no route is an error.
func moveRoute(dp *machine.Datapath, n *dfg.Node, binding []int) ([]int, error) {
	src, dst := binding[n.ID()], binding[n.ID()]
	if p := n.TransferFor(); p != nil {
		src = binding[p.ID()]
	} else if preds := n.Preds(); len(preds) > 0 {
		src = binding[preds[0].ID()]
	}
	if src == dst {
		return []int{0}, nil
	}
	r := dp.Route(src, dst)
	if r == nil {
		return nil, fmt.Errorf("sched: move %s needs a route from cluster %d to %d but the %s interconnect has none",
			n.Name(), src, dst, dp.Topology())
	}
	return r, nil
}

// Check verifies schedule legality: every node issued exactly once on an
// existing cluster and a concrete unit index that exists in its pool, data
// dependencies respected (operands finish before consumers start), and no
// two operations occupying the same concrete unit in the same cycle,
// accounting for data-introduction intervals. Exclusivity is checked per
// unit index, not per aggregate type capacity, so double-booking one adder
// while a second sits idle is rejected. It returns nil for a legal schedule.
func Check(s *Schedule) error {
	g, dp := s.Graph, s.Datapath
	// hopsOf re-derives each move's route from the bindings alone —
	// independently of whatever List recorded — and returns the global
	// channel of every hop, so a schedule claiming a wrong or missing
	// route can never pass.
	hopsOf := func(n *dfg.Node) ([]int, []int, error) {
		route, err := moveRoute(dp, n, s.Cluster)
		if err != nil {
			return nil, nil, err
		}
		units := []int{s.Unit[n.ID()]}
		if s.HopUnits != nil && s.HopUnits[n.ID()] != nil {
			units = s.HopUnits[n.ID()]
		}
		if len(units) != len(route) {
			return nil, nil, fmt.Errorf("sched: move %s records %d hop channels for a %d-hop route",
				n.Name(), len(units), len(route))
		}
		if units[0] != s.Unit[n.ID()] {
			return nil, nil, fmt.Errorf("sched: move %s hop 0 channel %d disagrees with Unit %d",
				n.Name(), units[0], s.Unit[n.ID()])
		}
		for h, ch := range units {
			if ch < 0 || ch >= dp.NumBuses() {
				return nil, nil, fmt.Errorf("sched: node %s on %s unit %d out of range (pool size %d)",
					n.Name(), n.FUType(), ch, dp.NumBuses())
			}
			if dp.LinkOfChannel(ch) != route[h] {
				return nil, nil, fmt.Errorf("sched: move %s hop %d on channel %d, not a channel of link %d (%s)",
					n.Name(), h, ch, route[h], dp.LinkName(route[h]))
			}
		}
		return route, units, nil
	}
	for _, n := range g.Nodes() {
		st := s.Start[n.ID()]
		if st < 0 {
			return fmt.Errorf("sched: node %s never scheduled", n.Name())
		}
		c := s.Cluster[n.ID()]
		if c < 0 || c >= dp.NumClusters() {
			return fmt.Errorf("sched: node %s bound to nonexistent cluster %d", n.Name(), c)
		}
		if n.IsMove() {
			if dp.NumBuses() == 0 {
				return fmt.Errorf("sched: move %s but datapath has no interconnect", n.Name())
			}
			if _, _, err := hopsOf(n); err != nil {
				return err
			}
		} else {
			pool := dp.NumFU(c, n.FUType())
			if u := s.Unit[n.ID()]; u < 0 || u >= pool {
				return fmt.Errorf("sched: node %s on %s unit %d out of range (pool size %d, cluster %d)",
					n.Name(), n.FUType(), u, pool, c)
			}
		}
		for _, p := range n.Preds() {
			if f := s.Start[p.ID()] + s.nodeLatency(p); f > st {
				return fmt.Errorf("sched: node %s starts at %d before operand %s finishes at %d",
					n.Name(), st, p.Name(), f)
			}
		}
		if f := st + s.nodeLatency(n); f > s.L {
			return fmt.Errorf("sched: node %s finishes at %d past L=%d", n.Name(), f, s.L)
		}
	}
	// Exclusivity: a node occupies its concrete unit during
	// [start, start+dii-1]; no other node may hold the same unit in any of
	// those cycles. With unit indices validated against pool sizes above,
	// per-unit exclusivity subsumes the aggregate per-type capacity bound.
	// Occupancy is tracked in a dense per-unit × per-cycle bitset, so a
	// clash probe is one masked word test instead of a map lookup.
	rowOf, rows := unitRows(dp)
	moveLat := dp.MoveLat()
	maxCycle := 0
	for _, n := range g.Nodes() {
		end := s.Start[n.ID()] + dp.DII(n.Op())
		if n.IsMove() {
			end = s.Start[n.ID()] + s.nodeLatency(n) + dp.MoveDII()
		}
		if end > maxCycle {
			maxCycle = end
		}
	}
	var occ BitMatrix
	occ.Reset(rows, maxCycle)
	for _, n := range g.Nodes() {
		st, dii := s.Start[n.ID()], dp.DII(n.Op())
		if n.IsMove() {
			// Each hop holds its channel for the move's dii, offset by
			// MoveLat per preceding hop.
			_, units, err := hopsOf(n)
			if err != nil {
				return err
			}
			for h, ch := range units {
				at := st + h*moveLat
				if occ.SetRange(rowOf(-1, n.FUType(), ch), at, at+dii) {
					return fmt.Errorf("sched: %s hop %d and an earlier transfer both occupy channel %d (%s) within cycles [%d, %d)",
						n.Name(), h, ch, dp.LinkName(dp.LinkOfChannel(ch)), at, at+dii)
				}
			}
			continue
		}
		c := s.Cluster[n.ID()]
		if occ.SetRange(rowOf(c, n.FUType(), s.Unit[n.ID()]), st, st+dii) {
			return fmt.Errorf("sched: %s and an earlier operation both occupy %s unit %d within cycles [%d, %d) (cluster %d)",
				n.Name(), n.FUType(), s.Unit[n.ID()], st, st+dii, c)
		}
	}
	return nil
}

// unitRows lays the datapath's concrete units out as consecutive bitset
// rows — every functional unit of every cluster, then the shared bus
// channels — and returns the (cluster, fu, unit) → row mapping along
// with the total row count. Moves pass cluster −1 to address the bus
// pool.
func unitRows(dp *machine.Datapath) (rowOf func(cluster int, fu dfg.FUType, unit int) int, rows int) {
	off := make([]int, dp.NumClusters()*dfg.NumFUTypes)
	for c := 0; c < dp.NumClusters(); c++ {
		for t := 1; t < dfg.NumFUTypes; t++ {
			ft := dfg.FUType(t)
			if ft == dfg.FUBus {
				continue
			}
			off[c*dfg.NumFUTypes+t] = rows
			rows += dp.NumFU(c, ft)
		}
	}
	busOff := rows
	rows += dp.NumBuses()
	return func(cluster int, fu dfg.FUType, unit int) int {
		if cluster < 0 {
			return busOff + unit
		}
		return off[cluster*dfg.NumFUTypes+int(fu)] + unit
	}, rows
}

// Gantt renders the schedule as a per-resource text chart: one row per
// functional unit and bus channel, one column per cycle. Intended for CLI
// tools and examples.
func Gantt(s *Schedule) string {
	g, dp := s.Graph, s.Datapath

	// Render out to the last occupied cycle rather than s.L, so a
	// multi-cycle (dii > 1) op is never silently clipped at column L-1 and
	// hand-built schedules that left L at zero still show their occupancy.
	horizon := s.L
	for _, n := range g.Nodes() {
		if st := s.Start[n.ID()]; st >= 0 {
			end := st + dp.DII(n.Op())
			if n.IsMove() && len(s.hopChannels(n)) > 1 {
				end = st + (len(s.hopChannels(n))-1)*dp.MoveLat() + dp.MoveDII()
			}
			if end > horizon {
				horizon = end
			}
		}
	}

	// One column per cycle, each wide enough for the widest thing a cell
	// can hold: any node name, or the largest cycle number in the header
	// — short-named ops on a long schedule must not shear the columns.
	width := 0
	for _, n := range g.Nodes() {
		if len(n.Name()) > width {
			width = len(n.Name())
		}
	}
	if horizon > 0 {
		if d := len(strconv.Itoa(horizon - 1)); d > width {
			width = d
		}
	}
	if width < 3 {
		width = 3
	}
	cell := func(txt string) string { return fmt.Sprintf(" %-*s", width, txt) }

	// The row-label gutter likewise grows with the widest resource label
	// (double-digit clusters, units or buses), never below the 12 columns
	// the small charts have always used.
	labelW := 12
	for c := 0; c < dp.NumClusters(); c++ {
		for _, ft := range dfg.ComputeFUTypes() {
			if n := dp.NumFU(c, ft); n > 0 {
				if l := len(fmt.Sprintf("c%d.%s%d", c, ft, n-1)) + 1; l > labelW {
					labelW = l
				}
			}
		}
	}
	for u := 0; u < dp.NumBuses(); u++ {
		if l := len(channelLabel(dp, u)) + 1; l > labelW {
			labelW = l
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "schedule %q on %s  L=%d M=%d\n", g.Name(), dp, s.L, s.NumMoves())
	b.WriteString(strings.Repeat(" ", labelW))
	for t := 0; t < horizon; t++ {
		fmt.Fprintf(&b, " %-*d", width, t)
	}
	b.WriteByte('\n')
	row := make([]string, horizon)
	emitRow := func(label string, match func(n *dfg.Node) bool) {
		for i := range row {
			row[i] = "."
		}
		for _, n := range g.Nodes() {
			if !match(n) || s.Start[n.ID()] < 0 {
				continue
			}
			for d := 0; d < dp.DII(n.Op()); d++ {
				row[s.Start[n.ID()]+d] = n.Name()
			}
		}
		fmt.Fprintf(&b, "%-*s", labelW, label)
		for _, r := range row {
			b.WriteString(cell(r))
		}
		b.WriteByte('\n')
	}
	for c := 0; c < dp.NumClusters(); c++ {
		for _, ft := range dfg.ComputeFUTypes() {
			for u := 0; u < dp.NumFU(c, ft); u++ {
				label := fmt.Sprintf("c%d.%s%d", c, ft, u)
				emitRow(label, func(n *dfg.Node) bool {
					return !n.IsMove() && s.Cluster[n.ID()] == c && n.FUType() == ft && s.Unit[n.ID()] == u
				})
			}
		}
	}
	// Channel rows render every hop of every move: hop h of a move
	// issued at st appears in its channel's row at st+h·MoveLat. On
	// single-hop machines this is exactly the old one-row-per-bus-channel
	// rendering.
	moveLat := dp.MoveLat()
	for u := 0; u < dp.NumBuses(); u++ {
		for i := range row {
			row[i] = "."
		}
		for _, n := range g.Nodes() {
			if !n.IsMove() || s.Start[n.ID()] < 0 {
				continue
			}
			for h, ch := range s.hopChannels(n) {
				if ch != u {
					continue
				}
				at := s.Start[n.ID()] + h*moveLat
				for d := 0; d < dp.DII(n.Op()) && at+d < len(row); d++ {
					row[at+d] = n.Name()
				}
			}
		}
		fmt.Fprintf(&b, "%-*s", labelW, channelLabel(dp, u))
		for _, r := range row {
			b.WriteString(cell(r))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// hopChannels returns the global channels a scheduled move occupies, one
// per hop (just its Unit on single-hop machines or when HopUnits was not
// recorded).
func (s *Schedule) hopChannels(n *dfg.Node) []int {
	if s.HopUnits != nil && s.HopUnits[n.ID()] != nil {
		return s.HopUnits[n.ID()]
	}
	return s.Unit[n.ID() : n.ID()+1]
}

// channelLabel names a global interconnect channel for chart rows. The
// shared bus keeps its historical bus0, bus1, … labels; routed links use
// the link name, suffixed with the channel index only when a link has
// several channels.
// LinkOccupancy returns, per interconnect link, how many hop
// reservations the schedule holds on it — each scheduled move
// contributes one per hop of its route. Aggregating a trace journal's
// route.pick events per link must reproduce exactly this vector.
func (s *Schedule) LinkOccupancy() []int {
	occ := make([]int, s.Datapath.NumLinks())
	for _, n := range s.Graph.Nodes() {
		if !n.IsMove() || s.Start[n.ID()] < 0 {
			continue
		}
		for _, ch := range s.hopChannels(n) {
			occ[s.Datapath.LinkOfChannel(ch)]++
		}
	}
	return occ
}

func channelLabel(dp *machine.Datapath, u int) string {
	if dp.Topology() == machine.TopoBus {
		return fmt.Sprintf("bus%d", u)
	}
	l := dp.LinkOfChannel(u)
	if dp.LinkCapacity(l) == 1 {
		return dp.LinkName(l)
	}
	return fmt.Sprintf("%s.%d", dp.LinkName(l), u-dp.LinkOffset(l))
}
