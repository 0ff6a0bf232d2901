package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vliwbind"
)

// explore-sweep: a closed loop of design-space explorations with
// algorithm init (the explore CLI's default), point-level parallelism 2
// and dominance pruning, over fixed spaces in a seeded order.

// space is one exploration: every clustering of an FU budget.
type space struct {
	kernel           string
	alus, muls, maxc int
	machine          vliwbind.DatapathConfig
}

func (s space) String() string {
	name := fmt.Sprintf("%s %d/%d/%d", s.kernel, s.alus, s.muls, s.maxc)
	if s.machine.Topology != "" {
		name += fmt.Sprintf(" @%s:%d", s.machine.Topology, s.machine.LinkCap)
	}
	return name
}

// spaces are the explored design spaces. The ring space routes over up
// to two hops. (DCT-DIT-2 on the same ring is left out: two of its
// points' B-INIT bindings fail the end-to-end audit, and a workload has
// to run without failures.) None of the paper kernels' spaces prunes a
// point under B-INIT, so the chain space is there for dominance pruning:
// every clustering of its ALU-only budget schedules the serial chain
// alike, the ports and cluster count decide dominance, and 3 of its 6
// points are pruned before they are bound.
var spaces = []space{
	{kernel: "DCT-DIT", alus: 4, muls: 2, maxc: 4},
	{kernel: "DCT-DIT-2", alus: 4, muls: 2, maxc: 4},
	{kernel: "DCT-DIT", alus: 4, muls: 2, maxc: 4, machine: vliwbind.DatapathConfig{Topology: vliwbind.TopoRing, LinkCap: 1}},
	{kernel: "FFT", alus: 3, muls: 2, maxc: 3},
	{kernel: "EWF", alus: 4, muls: 2, maxc: 3},
	{kernel: chainKernel, alus: 5, muls: 0, maxc: 4},
}

// chainKernel names a serial chain of chainOps additions.
const (
	chainKernel = "chain22"
	chainOps    = 22
)

// spaceGraph builds the graph a space explores.
func spaceGraph(s space) (*vliwbind.Graph, error) {
	if s.kernel == chainKernel {
		return chainGraph(chainKernel, chainOps)
	}
	k, err := vliwbind.KernelByName(s.kernel)
	if err != nil {
		return nil, err
	}
	return k.Build(), nil
}

// explorePar is the point-level worker pool of every sweep.
const explorePar = 2

type exploreSweep struct {
	graphs   []*vliwbind.Graph
	frontier map[int]string // each space's first frontier, as "spec=L/M …"
}

func (w *exploreSweep) setup(e *env) error {
	w.graphs = make([]*vliwbind.Graph, len(spaces))
	for i, s := range spaces {
		g, err := spaceGraph(s)
		if err != nil {
			return err
		}
		w.graphs[i] = g
	}
	if w.frontier == nil {
		w.frontier = make(map[int]string)
	}
	// Warm up with one sweep of every space.
	for i, sp := range spaces {
		if s := w.sweep(e, 0, i, nil); !s.good {
			return fmt.Errorf("warm-up sweep of %s failed", sp)
		}
	}
	return nil
}

func (w *exploreSweep) measure(e *env) error {
	closedLoop(e, len(spaces), func(k, i int, tr *tracer) sample { return w.sweep(e, k, i, tr) })
	return nil
}

func (w *exploreSweep) close() {}

// sweep explores space i once and checks every bound point.
func (w *exploreSweep) sweep(e *env, k, i int, tr *tracer) sample {
	sp, g := spaces[i], w.graphs[i]
	req := "op-" + strconv.Itoa(k)
	root := tr.start("op", req, 0)
	call := tr.start("vliwbind.explore", req, root)
	// The point binder is the one ExploreSpace picks for "init",
	// wrapped to keep each point's result for the audit and to time it.
	var mu sync.Mutex
	results := make(map[string]*vliwbind.Result)
	var calls atomic.Int64
	bindPoint := func(ctx context.Context, g *vliwbind.Graph, dp *vliwbind.Datapath, opts vliwbind.Options) (*vliwbind.Result, error) {
		calls.Add(1)
		t0 := time.Now()
		r, err := vliwbind.InitialBindContext(ctx, g, dp, opts)
		if tr != nil {
			tr.add("explore.point", req, call, t0, time.Now())
		}
		if err == nil {
			mu.Lock()
			results[dp.String()] = r
			mu.Unlock()
		}
		return r, err
	}
	cfg := vliwbind.ExploreConfig{Graph: g, Kernel: sp.kernel, ALUs: sp.alus, MULs: sp.muls,
		MaxClusters: sp.maxc, Machine: sp.machine, Bind: bindPoint, Par: explorePar, Prune: true}
	var log *engineLog
	if tr != nil {
		log = &engineLog{}
		cfg.Observer = log
		cfg.Options.Observer = log
	}
	var a0 uint64
	if tr == nil {
		a0 = totalAlloc()
	}
	t0 := time.Now()
	res, err := vliwbind.ExploreSpace(context.Background(), "init", cfg)
	lat := time.Since(t0)
	s := sample{input: i, lat: lat}
	if tr == nil {
		s.alloc = totalAlloc() - a0
	}
	tr.finish(call)
	if log != nil {
		t := log.totals()
		t.calls = calls.Load()
		e.eng.add(t)
	}
	defer tr.finish(root)
	if err != nil {
		e.errorf("explore %s: %v", sp, err)
		return s
	}
	if w.check(e, i, res, results, tr, req, root) {
		s.good = res.Degraded == 0 && !res.Expired
		s.degraded = !s.good
	}
	return s
}

// check audits every bound point's result, requires each point's vector
// to match it, and requires every sweep of a space to report the same
// frontier. The frontier's (L, M) are the space's quality.
func (w *exploreSweep) check(e *env, i int, res *vliwbind.ExploreResult, results map[string]*vliwbind.Result, tr *tracer, req string, root int) bool {
	sp, g := spaces[i], w.graphs[i]
	good := true
	var frontier strings.Builder
	var q quality
	for _, p := range res.Points {
		if p.Pruned {
			continue
		}
		r := results[p.Spec]
		if r == nil {
			e.wrongf("explore %s: no result was bound for point %s", sp, p.Spec)
			good = false
			continue
		}
		if err := tr.timed("audit.audit", req, root, func() error { return vliwbind.AuditResult(r) }); err != nil {
			e.wrongf("explore %s: point %s fails audit: %v", sp, p.Spec, err)
			good = false
			continue
		}
		if p.L != r.L() || p.Moves != r.Moves() {
			e.wrongf("explore %s: point %s reports (L, M) = (%d, %d), its binding gives (%d, %d)",
				sp, p.Spec, p.L, p.Moves, r.L(), r.Moves())
			good = false
		}
		if tr != nil {
			e.probe(fmt.Sprintf("%d %s", i, p.Spec), probeItem{g: g, dp: r.Datapath, res: r})
		}
		if !p.Pareto {
			continue
		}
		fmt.Fprintf(&frontier, "%s=%d/%d ", p.Spec, p.L, p.Moves)
		q.L += p.L
		q.M += p.Moves
		q.CP += criticalPath(g, r.Datapath)
		q.Ops += g.NumNodes()
	}
	if first, ok := w.frontier[i]; !ok {
		w.frontier[i] = frontier.String()
	} else if first != frontier.String() {
		e.wrongf("explore %s: frontier %q differs from the first sweep's %q", sp, frontier.String(), first)
		good = false
	}
	return e.result(i, sp.String(), q) && good
}
