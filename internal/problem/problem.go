// Package problem is the shared evaluation core under every binder in
// this repository. A Problem bundles one dataflow graph with one
// datapath and precomputes, exactly once, every piece of derived
// analysis the binding algorithms otherwise re-derive per candidate:
// topological order, critical path, ASAP/ALAP levels and mobility,
// consumer counts, longest-path heights, per-node latencies and
// data-introduction intervals, producer adjacency in flat slices, and
// the functional-unit pool layout of the machine.
//
// An Evaluator (see evaluator.go) owns reusable scratch buffers and
// answers the inner question of every binding algorithm — "what (L, M)
// does this candidate binding schedule to?" — without materializing a
// bound graph or a Schedule per call. The full bound graph is only
// built, via Materialize, for the solutions a caller actually keeps.
package problem

import (
	"fmt"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
)

// Problem is an immutable (graph, datapath) pair with all binding-
// independent analysis attached. Safe for concurrent use; create one
// per binding run and share it between workers, giving each worker its
// own Evaluator.
type Problem struct {
	g  *dfg.Graph
	dp *machine.Datapath

	n        int     // number of nodes in g
	clusters int     // dp.NumClusters()
	order    []int32 // node IDs in topological order

	// Per-node operation attributes, indexed by node ID.
	lat    []int32 // dp.Latency(op)
	dii    []int32 // dp.DII(op)
	fut    []int32 // dfg.FUTypeOf(op)
	isLoad []bool  // op == OpLoad (spill reloads are ALAP-held by the scheduler)
	output []bool  // node is live-out

	// Producer adjacency in CSR form: the distinct producers of node id,
	// in first-use order, are preds[predStart[id]:predStart[id+1]].
	// This mirrors dfg.Node.Preds exactly.
	predStart []int32
	preds     []int32

	// Analysis of the original graph under dp's latency model.
	lcp    int        // critical path L_CP
	times  *dfg.Times // ASAP/ALAP at the critical path
	height []int32    // longest path (in latency) from each node to any sink

	// Unit pool layout: pool key c*NumFUTypes+t holds the compute units
	// of cluster c and FU type t, and key fuKeys+l the channels of
	// interconnect link l (on the shared bus, that one link's pool is
	// the whole legacy bus pool). Pool k occupies unitFree slots
	// poolOff[k] .. poolOff[k]+poolLen[k] of an Evaluator's scratch,
	// unitPoolLen slots in all.
	poolOff     []int32
	poolLen     []int32
	fuKeys      int32
	unitPoolLen int
	numBuses    int32

	// Flattened route table: a transfer from cluster src to dst hops
	// across routeLinks[routeStart[k]:routeStart[k+1]], k = src*clusters
	// +dst.
	routeStart []int32
	routeLinks []int32

	moveLat, moveDII int32
	// baseWork is Σ (dii+lat) over the original nodes — the move-free part
	// of the scheduler's stall-guard bound.
	baseWork int32
}

// MaxClusters is the largest cluster count a Problem accepts. The bound
// exists because compact binding keys (bind's memo cache and B-ITER's
// plateau detection, and through them the cross-request store) encode a
// cluster index as one byte holding c+1: with at most 255 clusters the
// largest index is 254 and the encoding is exact, whereas an unchecked
// 256-cluster machine would silently alias cluster 255 with the unbound
// marker. Real clustered VLIW datapaths have single-digit cluster
// counts, so the bound costs nothing and removes a class of silent
// cache collisions.
const MaxClusters = 255

// New builds the Problem for an original (move-free) graph on a
// datapath. It fails when the graph already carries data transfers or
// when the datapath cannot run it at all.
func New(g *dfg.Graph, dp *machine.Datapath) (*Problem, error) {
	if g.NumMoves() != 0 {
		return nil, fmt.Errorf("problem: %q is already bound (has %d moves); Problems are built on original graphs", g.Name(), g.NumMoves())
	}
	if c := dp.NumClusters(); c > MaxClusters {
		return nil, fmt.Errorf("problem: datapath has %d clusters; at most %d are supported (binding keys encode a cluster index in one byte)", c, MaxClusters)
	}
	if err := dp.CanRun(g); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	p := &Problem{
		g:         g,
		dp:        dp,
		n:         n,
		clusters:  dp.NumClusters(),
		order:     make([]int32, 0, n),
		lat:       make([]int32, n),
		dii:       make([]int32, n),
		fut:       make([]int32, n),
		isLoad:    make([]bool, n),
		output:    make([]bool, n),
		predStart: make([]int32, n+1),
		moveLat:   int32(dp.MoveLat()),
		moveDII:   int32(dp.MoveDII()),
	}
	for _, nd := range dfg.TopoOrder(g) {
		p.order = append(p.order, int32(nd.ID()))
	}
	nPreds := 0
	for _, nd := range g.Nodes() {
		nPreds += len(nd.Preds())
	}
	p.preds = make([]int32, 0, nPreds)
	for _, nd := range g.Nodes() {
		id := nd.ID()
		p.lat[id] = int32(dp.Latency(nd.Op()))
		p.dii[id] = int32(dp.DII(nd.Op()))
		p.fut[id] = int32(nd.FUType())
		p.isLoad[id] = nd.Op() == dfg.OpLoad
		p.output[id] = nd.IsOutput()
		p.baseWork += p.dii[id] + p.lat[id]
	}
	// CSR in node-ID order so preds(id) indexes directly.
	for id := 0; id < n; id++ {
		p.predStart[id] = int32(len(p.preds))
		for _, pr := range g.Node(id).Preds() {
			p.preds = append(p.preds, int32(pr.ID()))
		}
	}
	p.predStart[n] = int32(len(p.preds))

	p.lcp = dfg.CriticalPath(g, dp.Latency)
	p.times = dfg.Analyze(g, dp.Latency, 0)
	p.height = make([]int32, n)
	for i := len(p.order) - 1; i >= 0; i-- {
		id := p.order[i]
		// height[id] is final here (all consumers processed); push to producers.
		if p.height[id] < p.lat[id] {
			p.height[id] = p.lat[id]
		}
		for _, pr := range p.predsOf(id) {
			if h := p.height[id] + p.lat[pr]; h > p.height[pr] {
				p.height[pr] = h
			}
		}
	}

	// Pool layout for the virtual scheduler.
	p.fuKeys = int32(p.clusters * dfg.NumFUTypes)
	p.poolOff = make([]int32, int(p.fuKeys)+dp.NumLinks())
	p.poolLen = make([]int32, int(p.fuKeys)+dp.NumLinks())
	off := int32(0)
	for c := 0; c < p.clusters; c++ {
		for t := 1; t < dfg.NumFUTypes; t++ {
			ft := dfg.FUType(t)
			if ft == dfg.FUBus {
				continue
			}
			k := c*dfg.NumFUTypes + t
			p.poolOff[k] = off
			p.poolLen[k] = int32(dp.NumFU(c, ft))
			off += p.poolLen[k]
		}
	}
	for l := 0; l < dp.NumLinks(); l++ {
		p.poolOff[int(p.fuKeys)+l] = off + int32(dp.LinkOffset(l))
		p.poolLen[int(p.fuKeys)+l] = int32(dp.LinkCapacity(l))
	}
	p.unitPoolLen = int(off) + dp.NumBuses()
	p.numBuses = int32(dp.NumBuses())
	p.routeStart = make([]int32, p.clusters*p.clusters+1)
	for src := 0; src < p.clusters; src++ {
		for dst := 0; dst < p.clusters; dst++ {
			k := src*p.clusters + dst
			p.routeStart[k] = int32(len(p.routeLinks))
			for _, l := range dp.Route(src, dst) {
				p.routeLinks = append(p.routeLinks, int32(l))
			}
		}
	}
	p.routeStart[p.clusters*p.clusters] = int32(len(p.routeLinks))
	return p, nil
}

// routeOf returns the hop links of a src→dst transfer (empty when
// src == dst or no route exists).
func (p *Problem) routeOf(src, dst int32) []int32 {
	k := src*int32(p.clusters) + dst
	return p.routeLinks[p.routeStart[k]:p.routeStart[k+1]]
}

// Must is New for callers that know their inputs are valid (tests,
// examples); it panics on error.
func Must(g *dfg.Graph, dp *machine.Datapath) *Problem {
	p, err := New(g, dp)
	if err != nil {
		panic(err)
	}
	return p
}

// Graph returns the original graph the problem was built on.
func (p *Problem) Graph() *dfg.Graph { return p.g }

// Datapath returns the machine model.
func (p *Problem) Datapath() *machine.Datapath { return p.dp }

// NumNodes is the node count of the original graph.
func (p *Problem) NumNodes() int { return p.n }

// CriticalPath is L_CP of the original graph under the datapath's
// latency model, computed once at construction.
func (p *Problem) CriticalPath() int { return p.lcp }

// Times exposes the ASAP/ALAP analysis of the original graph at the
// critical path (target 0), computed once at construction.
func (p *Problem) Times() *dfg.Times { return p.times }

// Height returns the longest latency-weighted path from node id to any
// sink, including id's own latency — the priority modulo scheduling
// orders by.
func (p *Problem) Height(id int) int { return int(p.height[id]) }

// Latency returns the precomputed latency of node id.
func (p *Problem) Latency(id int) int { return int(p.lat[id]) }

// DII returns the precomputed data-introduction interval of node id.
func (p *Problem) DII(id int) int { return int(p.dii[id]) }

// TopoOrder returns the node IDs of the graph in topological order.
// Callers must not modify the returned slice.
func (p *Problem) TopoOrder() []int32 { return p.order }

func (p *Problem) predsOf(id int32) []int32 {
	return p.preds[p.predStart[id]:p.predStart[id+1]]
}
