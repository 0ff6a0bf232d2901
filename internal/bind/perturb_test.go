package bind

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
)

// refCandidate is one perturbation as the reference enumeration emits it.
type refCandidate struct {
	ids      []int // perturbed node IDs
	clusters []int // their new clusters
}

// refPerturbations is the enumeration B-ITER used before it enumerated
// each boundary pair once, kept verbatim as the reference the perturber
// is pinned to: it emits a pair once per path that links it (an edge,
// each shared consumer), so its candidates repeat.
func refPerturbations(g *dfg.Graph, dp *machine.Datapath, bn []int, noPairs bool) []refCandidate {
	bops := refBoundaryOps(g, bn)
	isBoundary := make(map[int]bool, len(bops))
	for _, v := range bops {
		isBoundary[v.ID()] = true
	}
	var cands []refCandidate
	if len(bops) == 0 {
		for _, v := range g.Nodes() {
			for _, d := range dp.TargetSet(v.Op()) {
				if d != bn[v.ID()] {
					cands = append(cands, refCandidate{ids: []int{v.ID()}, clusters: []int{d}})
				}
			}
		}
		return cands
	}
	neigh := make(map[int][]int, len(bops))
	for _, v := range bops {
		nc := refNeighborClusters(dp, v, bn)
		neigh[v.ID()] = nc
		for _, d := range nc {
			cands = append(cands, refCandidate{ids: []int{v.ID()}, clusters: []int{d}})
		}
	}
	if noPairs {
		return cands
	}
	addPair := func(v, w *dfg.Node) {
		if v.ID() >= w.ID() || !isBoundary[v.ID()] || !isBoundary[w.ID()] {
			return
		}
		for _, dv := range neigh[v.ID()] {
			for _, dw := range neigh[w.ID()] {
				if dv == bn[v.ID()] && dw == bn[w.ID()] {
					continue
				}
				cands = append(cands, refCandidate{ids: []int{v.ID(), w.ID()}, clusters: []int{dv, dw}})
			}
		}
	}
	for _, v := range bops {
		for _, w := range v.Succs() {
			addPair(v, w)
			addPair(w, v)
		}
		for _, u := range v.Succs() {
			for _, w := range u.Preds() {
				if w != v {
					addPair(v, w)
					addPair(w, v)
				}
			}
		}
	}
	return cands
}

func refBoundaryOps(g *dfg.Graph, bn []int) []*dfg.Node {
	var out []*dfg.Node
	for _, v := range g.Nodes() {
		c := bn[v.ID()]
		found := false
		for _, u := range v.Preds() {
			if bn[u.ID()] != c {
				found = true
				break
			}
		}
		if !found {
			for _, u := range v.Succs() {
				if bn[u.ID()] != c {
					found = true
					break
				}
			}
		}
		if found {
			out = append(out, v)
		}
	}
	return out
}

func refNeighborClusters(dp *machine.Datapath, v *dfg.Node, bn []int) []int {
	c := bn[v.ID()]
	seen := map[int]bool{c: true}
	var out []int
	consider := func(u *dfg.Node) {
		d := bn[u.ID()]
		if !seen[d] && dp.Supports(d, v.Op()) {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, u := range v.Preds() {
		consider(u)
	}
	for _, u := range v.Succs() {
		consider(u)
	}
	return out
}

// refKeys is the reference's candidate bindings as keys, with no-op
// candidates skipped and repeats dropped in first-occurrence order, the
// way a B-ITER round used to materialize them and score deduplicated
// them. It also returns how many repeats it dropped.
func refKeys(cands []refCandidate, bn []int) (keys []string, repeats int) {
	seen := map[string]bool{}
	for _, c := range cands {
		b := append([]int(nil), bn...)
		changed := false
		for i, id := range c.ids {
			if b[id] != c.clusters[i] {
				b[id] = c.clusters[i]
				changed = true
			}
		}
		if !changed {
			continue
		}
		k := bindingKey(b)
		if seen[k] {
			repeats++
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	return keys, repeats
}

// TestPerturbationsMatchReference pins the perturber to the reference
// enumeration: on random bindings of every paper kernel, on bus, ring
// and point-to-point machines, with and without pairs, and on a uniform
// binding (the move-free fallback), its deltas must yield exactly the
// reference's bindings with repeats dropped, in first-occurrence order.
// The perturber is reused across every binding of a machine, as across
// the rounds of a pass.
func TestPerturbationsMatchReference(t *testing.T) {
	machines := []struct {
		spec string
		cfg  machine.Config
	}{
		{"[2,1|1,1|1,1]", machine.Config{}},
		{"[1,1|2,0|1,1|1,1]", machine.Config{Topology: machine.TopoRing, LinkCap: 1}},
		{"[2,1|1,1|1,1]", machine.Config{Topology: machine.TopoP2P}},
	}
	rng := rand.New(rand.NewSource(1))
	var repeats, fallbacks int
	for _, k := range kernels.All() {
		g := k.Build()
		for _, m := range machines {
			dp := machine.MustParse(m.spec, m.cfg)
			uniform := make([]int, g.NumNodes()) // cluster 0 runs every op
			bindings := [][]int{uniform}
			for i := 0; i < 6; i++ {
				bn := make([]int, g.NumNodes())
				for _, v := range g.Nodes() {
					ts := dp.TargetSet(v.Op())
					bn[v.ID()] = ts[rng.Intn(len(ts))]
				}
				bindings = append(bindings, bn)
			}
			for _, noPairs := range []bool{false, true} {
				p := newPerturber(g, dp, noPairs)
				for bi, bn := range bindings {
					want, rep := refKeys(refPerturbations(g, dp, bn, noPairs), bn)
					repeats += rep
					if len(boundaryOps(nil, g, bn)) == 0 {
						fallbacks++
					}
					var got []string
					for _, d := range p.perturbations(bn) {
						b := slices.Clone(bn)
						b[d.v] = d.cv
						if d.w >= 0 {
							b[d.w] = d.cw
						}
						got = append(got, bindingKey(b))
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s on %s@%s, binding %d, noPairs %v: %d candidates, want the reference's %d distinct ones in order",
							k.Name, m.spec, dp.Topology(), bi, noPairs, len(got), len(want))
					}
				}
			}
		}
	}
	if repeats == 0 || fallbacks == 0 {
		t.Errorf("reference dropped %d repeats over %d fallback bindings; want both non-zero so the pin is not vacuous", repeats, fallbacks)
	}
}

// TestImproveAllocationsPerCandidate bounds what a B-ITER search
// allocates beside its list schedules: keys patched into one buffer, one
// string per round, records and Q_U vectors in per-batch arenas, and a
// binding only for each accepted winner. It runs improve from the
// sweep's best seed on a fresh engine per run, at Parallelism 1.
func TestImproveAllocationsPerCandidate(t *testing.T) {
	ctx := context.Background()
	for _, row := range []struct{ kernel, dp string }{
		{"DCT-DIT-2", "[3,1|2,2|1,3]"},
		{"EWF", "[1,1|1,1]"},
		{"FFT", "[1,1|1,1|1,1]"},
	} {
		k, err := kernels.ByName(row.kernel)
		if err != nil {
			t.Fatal(err)
		}
		g, dp := k.Build(), machine.MustParse(row.dp, machine.Config{})
		opts, err := Options{Parallelism: 1}.prepare()
		if err != nil {
			t.Fatal(err)
		}
		en, err := newEngine(g, dp, opts)
		if err != nil {
			t.Fatal(err)
		}
		seeds, err := initialSolutions(ctx, en, opts)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 3
		engines := make([]*engine, runs+1) // AllocsPerRun adds a warm-up run
		stats := make([]CacheStats, runs+1)
		for i := range engines {
			o := opts
			o.Stats = &stats[i]
			if engines[i], err = newEngine(g, dp, o); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			en := engines[next]
			next++
			if _, _, err := improve(ctx, en, seeds[0], opts); err != nil {
				t.Fatal(err)
			}
		})
		evals := stats[0].Hits() + stats[0].Misses()
		perEval := allocs / float64(evals)
		t.Logf("%s %s: %.0f allocations over %d evaluated candidates, %.2f each", row.kernel, row.dp, allocs, evals, perEval)
		if perEval > 2 {
			t.Errorf("%s %s: %.2f allocations per evaluated candidate, want at most 2", row.kernel, row.dp, perEval)
		}
	}
}
