package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vliwbind"
)

// bind-paper and bind-random: closed loops with one caller, each
// operation one facade call.

// bindInput is one distinct input of a bind workload.
type bindInput struct {
	name    string
	g       *vliwbind.Graph
	dp      *vliwbind.Datapath
	full    bool    // Bind (B-INIT + B-ITER); false runs InitialBind only
	want    *[2]int // the golden (L, M), when the input has one
	cp, ops int
}

// bindWorkload runs its inputs in seeded passes.
type bindWorkload struct {
	par    int // Options.Parallelism
	build  func(cfg config) ([]bindInput, error)
	inputs []bindInput
}

// newBindPaper is the paper's own suite, every Table 1 and Table 2 row,
// on the exact sequential path (Parallelism 1: no pool, no memo cache).
func newBindPaper() *bindWorkload { return &bindWorkload{par: 1, build: paperInputs} }

// newBindRandom binds random graphs at Parallelism 2 — the default
// engine, with its pool and memo cache, on a 2-CPU machine.
func newBindRandom() *bindWorkload { return &bindWorkload{par: 2, build: randomInputs} }

// setup builds the inputs and warms up with one pass over them, which
// also gives every input the first answer later ones must repeat.
func (w *bindWorkload) setup(e *env) error {
	inputs, err := w.build(e.cfg)
	if err != nil {
		return err
	}
	w.inputs = inputs
	for i, in := range inputs[:e.cfg.capped(len(inputs))] {
		if res, err := w.bind(i, vliwbind.Options{Parallelism: w.par}); err != nil {
			return err
		} else if !w.check(e, i, res, nil, "", 0) || res.Degraded {
			return fmt.Errorf("warm-up of %s gave a wrong answer", in.name)
		}
	}
	return nil
}

func (w *bindWorkload) measure(e *env) error {
	closedLoop(e, len(w.inputs), func(k, i int, tr *tracer) sample { return w.op(e, k, i, tr) })
	return nil
}

func (w *bindWorkload) close() {}

func (w *bindWorkload) bind(i int, opts vliwbind.Options) (*vliwbind.Result, error) {
	in := w.inputs[i]
	if in.full {
		return vliwbind.Bind(in.g, in.dp, opts)
	}
	return vliwbind.InitialBind(in.g, in.dp, opts)
}

// op is one timed facade call on input i, then its checks.
func (w *bindWorkload) op(e *env, k, i int, tr *tracer) sample {
	in := w.inputs[i]
	req := "op-" + strconv.Itoa(k)
	opts := vliwbind.Options{Parallelism: w.par}
	var log *engineLog
	if tr != nil {
		log = &engineLog{}
		opts.Observer = log
	}
	name := "vliwbind.initial_bind"
	if in.full {
		name = "vliwbind.bind"
	}
	root := tr.start("op", req, 0)
	call := tr.start(name, req, root)
	var a0 uint64
	if tr == nil {
		a0 = totalAlloc()
	}
	t0 := time.Now()
	res, err := w.bind(i, opts)
	t1 := time.Now()
	s := sample{input: i, lat: t1.Sub(t0)}
	if tr == nil {
		s.alloc = totalAlloc() - a0
	}
	tr.finish(call)
	if tr != nil {
		_, first, _ := log.marks()
		tr.splitBind(req, call, t0, t1, first)
		t := log.totals()
		t.calls = 1
		e.eng.add(t)
	}
	if err != nil {
		e.errorf("%s: %v", in.name, err)
	} else if w.check(e, i, res, tr, req, root) {
		s.good, s.degraded = !res.Degraded, res.Degraded
	}
	tr.finish(root)
	if tr != nil && s.good {
		e.probe(strconv.Itoa(i), probeItem{g: in.g, dp: in.dp, res: res})
	}
	return s
}

// check audits one answer and compares it with the golden (L, M) and
// with the input's earlier answers. A degraded answer can pass.
func (w *bindWorkload) check(e *env, i int, res *vliwbind.Result, tr *tracer, req string, parent int) bool {
	in := w.inputs[i]
	if err := tr.timed("audit.audit", req, parent, func() error { return vliwbind.AuditResult(res) }); err != nil {
		e.wrongf("%s: audit: %v", in.name, err)
		return false
	}
	q := quality{L: res.L(), M: res.Moves(), CP: in.cp, Ops: in.ops}
	if in.want != nil && (q.L != in.want[0] || q.M != in.want[1]) {
		e.wrongf("%s: (L, M) = (%d, %d), the golden B-ITER answer is (%d, %d)", in.name, q.L, q.M, in.want[0], in.want[1])
		return false
	}
	return e.result(i, in.name, q)
}

// goldenPath holds the golden (L, M) of every paper row.
const goldenPath = "cmd/vliwtab/testdata/tables.golden"

// paperInputs returns every Table 1 and Table 2 row with its golden
// B-ITER answer.
func paperInputs(cfg config) ([]bindInput, error) {
	golden, err := readGolden(filepath.Join(cfg.Root, goldenPath))
	if err != nil {
		return nil, err
	}
	var inputs []bindInput
	for _, r := range append(vliwbind.Table1(), vliwbind.Table2()...) {
		k, err := vliwbind.KernelByName(r.Kernel)
		if err != nil {
			return nil, err
		}
		g := k.Build()
		dp, err := r.Datapath()
		if err != nil {
			return nil, err
		}
		want, ok := golden[r.Name()]
		if !ok {
			return nil, fmt.Errorf("%s has no row %q", goldenPath, r.Name())
		}
		inputs = append(inputs, bindInput{name: r.Name(), g: g, dp: dp, full: true, want: &want,
			cp: criticalPath(g, dp), ops: g.NumNodes()})
	}
	return inputs, nil
}

// readGolden parses the golden tables into row name → B-ITER (L, M).
// A row reads "NAME… PCC | B-INIT | B-ITER", each cell "L/M".
func readGolden(path string) (map[string][2]int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string][2]int)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		n := len(f)
		var lm [2]int
		if n < 7 || f[n-2] != "|" || f[n-4] != "|" {
			return nil, fmt.Errorf("%s: malformed row %q", path, line)
		}
		if _, err := fmt.Sscanf(f[n-1], "%d/%d", &lm[0], &lm[1]); err != nil {
			return nil, fmt.Errorf("%s: malformed B-ITER cell in %q", path, line)
		}
		out[strings.Join(f[:n-5], " ")] = lm
	}
	return out, nil
}

// The bind-random inputs. Full binds run on small graphs and B-INIT
// alone on large ones: a full bind takes about a second at 128 ops, so
// the large graphs exercise the driver sweep at sizes bind-paper never
// reaches without B-ITER dominating the pass.
//
// The graphs come from their own seed, not the run's: one graph's bind
// time varies severalfold with its structure (and by ±10% with its node
// order alone), so graphs redrawn every run would move the latency
// metrics by 10–35% from seed to seed, far past their bounds. A run's
// seed orders the passes; --graph-seed draws another population to
// re-check a claim on graphs nobody tuned for.
const (
	randomFull     = 32  // full binds per pass
	randomFullMin  = 24  // their op counts span [min, max]
	randomFullMax  = 56  //
	randomInit     = 8   // B-INIT-only graphs per pass, plus slow224
	randomInitMin  = 128 // their op counts span [min, max]
	randomInitMax  = 256 //
	randomLocality = 0.6
	slowPath       = "cmd/vbind/testdata/slow224.dfg"
	slowMachine    = "[2,1|1,1|1,1]"
)

// defaultGraphSeed draws the bind-random population every run uses
// unless --graph-seed says otherwise.
const defaultGraphSeed = 2001

// randomMachines are the datapaths random graphs are bound on, in turn.
var randomMachines = []string{"[2,1|2,1]", "[2,1|1,1|1,1]", "[1,1|2,1]"}

// randomInputs draws the bind-random graphs from cfg.GraphSeed.
func randomInputs(cfg config) ([]bindInput, error) {
	rng := rand.New(rand.NewSource(cfg.GraphSeed))
	var inputs []bindInput
	add := func(g *vliwbind.Graph, spec string, full bool) error {
		dp, err := vliwbind.ParseDatapath(spec, vliwbind.DatapathConfig{})
		if err != nil {
			return err
		}
		inputs = append(inputs, bindInput{name: g.Name() + " " + spec, g: g, dp: dp, full: full,
			cp: criticalPath(g, dp), ops: g.NumNodes()})
		return nil
	}
	spread := func(i, n, lo, hi int) int { return lo + i*(hi-lo)/(n-1) }
	for i := 0; i < randomFull; i++ {
		g := vliwbind.RandomGraph(vliwbind.RandomGraphConfig{Ops: spread(i, randomFull, randomFullMin, randomFullMax),
			Locality: randomLocality, Seed: rng.Int63()})
		if err := add(g, randomMachines[i%len(randomMachines)], true); err != nil {
			return nil, err
		}
	}
	for i := 0; i < randomInit; i++ {
		g := vliwbind.RandomGraph(vliwbind.RandomGraphConfig{Ops: spread(i, randomInit, randomInitMin, randomInitMax),
			Locality: randomLocality, Seed: rng.Int63()})
		if err := add(g, randomMachines[i%len(randomMachines)], false); err != nil {
			return nil, err
		}
	}
	text, err := os.ReadFile(filepath.Join(cfg.Root, slowPath))
	if err != nil {
		return nil, err
	}
	g, err := vliwbind.ParseGraphString(string(text))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", slowPath, err)
	}
	if err := add(g, slowMachine, false); err != nil {
		return nil, err
	}
	return inputs, nil
}
