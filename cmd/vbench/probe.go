package main

import (
	"fmt"
	"os"
	"strconv"

	"vliwbind"
	"vliwbind/internal/problem"
	"vliwbind/internal/store"
)

// Layer probes. Some layers a workload moves run only inside the
// program — the evaluator inside a bind call, the store inside the
// daemon, the lower bound inside the explorer — where vbench does not
// time them. After a traced run's timed phase, vbench calls those
// layers' public functions once more on every distinct input the traced
// half ran, with the answer the workload got for it. Each workload
// probes only the layers whose metrics it is meant to move; the
// per-layer metrics of every other layer read 0 on it.

// probeItem is one distinct input of a traced run with its answer.
type probeItem struct {
	g   *vliwbind.Graph
	dp  *vliwbind.Datapath
	res *vliwbind.Result
}

// layerSet is a set of probed layers.
type layerSet uint8

const (
	// probeProblem: problem.New and Evaluator.Evaluate on the answer.
	probeProblem layerSet = 1 << iota
	// probeStore: textio.Parse of the input's text, store.Canonicalize,
	// Store.Put and Store.Get of the answer's entry, and the facade's
	// store-hit path on it. The answers are B-ITER's (store kind
	// bind:iter), as every request serve-mix sends asks for Bind.
	probeStore
	// probeBound: optbind.LowerBoundClustered on the input's datapath.
	probeBound
)

// workloadProbes names the layers each workload probes.
var workloadProbes = map[string]layerSet{
	"bind-paper":    probeProblem,
	"bind-random":   probeProblem,
	"serve-mix":     probeStore,
	"explore-sweep": probeBound,
}

// probeReps is how many times each input is probed, for steadier
// medians.
const probeReps = 3

// probeLayers runs the probes of a traced run.
func probeLayers(e *env) error {
	set := workloadProbes[e.cfg.Workload]
	var st *vliwbind.ResultStore
	var fp []byte
	if set&probeStore != 0 {
		dir, err := e.scratchDir("probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if st, err = vliwbind.OpenStore(dir); err != nil {
			return err
		}
		defer st.Close()
		if fp, err = (vliwbind.Options{}).Fingerprint(); err != nil {
			return err
		}
	}
	e.probes = e.probes[:e.cfg.capped(len(e.probes))]
	for rep := 0; rep < probeReps; rep++ {
		for i, it := range e.probes {
			if err := probeOne(e, set, st, fp, i, it); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeOne probes the layers of set on one input.
func probeOne(e *env, set layerSet, st *vliwbind.ResultStore, fp []byte, i int, it probeItem) error {
	tr := e.tr
	req := "probe-" + strconv.Itoa(i)
	root := tr.start("probe", req, 0)
	defer tr.finish(root)
	step := func(name string, f func() error) error {
		if err := tr.timed(name, req, root, f); err != nil {
			return fmt.Errorf("%s on %s: %w", name, it.g.Name(), err)
		}
		return nil
	}
	if set&probeProblem != 0 {
		var p *problem.Problem
		if err := step("problem.new", func() (err error) {
			p, err = problem.New(it.g, it.dp)
			return err
		}); err != nil {
			return err
		}
		ev := p.NewEvaluator()
		if err := step("problem.evaluate", func() error {
			_, err := ev.Evaluate(it.res.Binding)
			return err
		}); err != nil {
			return err
		}
	}
	if set&probeBound != 0 {
		if err := step("optbind.bound", func() error {
			vliwbind.LatencyLowerBoundClustered(it.g, it.dp)
			return nil
		}); err != nil {
			return err
		}
	}
	if set&probeStore != 0 {
		return probeStoreLayers(e, st, fp, it, step)
	}
	return nil
}

// probeStoreLayers probes the layers a served request passes through
// around the search: parse, canonicalize, put and get the entry the
// facade would publish for the answer, then hit it through the facade.
func probeStoreLayers(e *env, st *vliwbind.ResultStore, fp []byte, it probeItem, step func(string, func() error) error) error {
	text := printGraph(it.g)
	if err := step("textio.parse", func() error {
		_, err := vliwbind.ParseGraphString(text)
		return err
	}); err != nil {
		return err
	}
	var canon *store.Canon
	if err := step("store.canonicalize", func() (err error) {
		canon, err = store.Canonicalize(it.g)
		return err
	}); err != nil {
		return err
	}
	// The entry holds the binding in canonical positions under the
	// request's key.
	key := store.ResultKey(store.KindIter, canon, it.dp, fp)
	ent := store.Entry{Key: key, Kind: store.KindIter, L: it.res.L(), M: it.res.Moves(), Binding: make([]int, len(canon.Order))}
	for k, id := range canon.Order {
		ent.Binding[k] = it.res.Binding[id]
	}
	if err := step("store.put", func() error { return st.Put(ent) }); err != nil {
		return err
	}
	if err := step("store.get", func() error {
		if st.Get(key) == nil {
			return fmt.Errorf("entry just put is missing")
		}
		return nil
	}); err != nil {
		return err
	}
	return step("vliwbind.store_hit", func() error {
		res, err := vliwbind.Bind(it.g, it.dp, vliwbind.Options{Parallelism: 1, Store: st})
		if err == nil && (res.L() != it.res.L() || res.Moves() != it.res.Moves()) {
			e.wrongf("%s: store hit gives (L, M) = (%d, %d), the search gave (%d, %d)",
				it.g.Name(), res.L(), res.Moves(), it.res.L(), it.res.Moves())
		}
		return err
	})
}
