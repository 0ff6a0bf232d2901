// Command vbind binds and schedules a dataflow graph on a clustered VLIW
// datapath, reporting schedule latency and data transfers.
//
// Usage:
//
//	vbind -kernel EWF -dp "[2,1|1,1]" -algo iter -gantt
//	vbind -kernel ARF -dp "[2,1|2,1]" -asm
//	vbind -dfg kernel.dfg -dp "[1,1|1,1]" -buses 1 -movelat 2 -algo init
//	vbind -kernel EWF -algo iter -trace /tmp/ewf.jsonl -metrics -explain
//
// Algorithms: init (greedy B-INIT driver), iter (full two-phase B-ITER,
// default), pcc (Partial Component Clustering baseline), anneal
// (simulated annealing, Leupers), mincut (balanced network partitioning,
// Capitanio et al.; homogeneous clusters only), opt (exhaustive, small
// graphs only).
//
// Observability: -trace FILE journals every search event (sweep configs,
// B-ITER rounds, candidate evaluations with cache verdicts) as JSONL,
// -metrics prints per-phase timers and counters, -explain reports the
// per-cluster icost breakdown behind each B-INIT choice and each
// accepted B-ITER move. All three are passive: results are bit-identical
// with or without them.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vliwbind"
	"vliwbind/internal/sigctx"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, sigctx.Notify(), os.Exit))
}

// config carries every vbind setting; flag parsing fills one in and the
// tests construct them directly.
type config struct {
	dfgPath, kernel string
	dpSpec          string
	buses, moveLat  int
	topology        string
	linkCap         int
	algo            string
	regs, par       int
	timeout         time.Duration
	gantt, dot, asm bool
	pressure        bool
	verify, audit   bool
	tracePath       string
	metrics         bool
	explain         bool
	useStore        bool
	storeDir        string
}

// realMain parses flags, validates input selection up front, and runs.
// The signal channel and hard-exit function are injected so tests drive
// interruption in-process; both may be nil for an uninterruptible run.
// The first SIGINT/SIGTERM cancels the binding context — the search
// degrades onto the audited anytime path and partial results print — a
// second signal hard-exits with status 130.
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
func realMain(args []string, stdout, stderr io.Writer, sigc <-chan os.Signal, hardExit func(int)) int {
	fs := flag.NewFlagSet("vbind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.dfgPath, "dfg", "", "path to a .dfg file (mutually exclusive with -kernel)")
	fs.StringVar(&cfg.kernel, "kernel", "", "built-in benchmark name (EWF, ARF, FFT, DCT-DIF, DCT-LEE, DCT-DIT, DCT-DIT-2)")
	fs.StringVar(&cfg.dpSpec, "dp", "[1,1|1,1]", "datapath clusters in [alus,muls|...] notation")
	fs.IntVar(&cfg.buses, "buses", 2, "number of buses N_B")
	fs.IntVar(&cfg.moveLat, "movelat", 1, "data transfer latency lat(move); per hop on routed topologies")
	fs.StringVar(&cfg.topology, "topology", "", "interconnect topology: bus (default), p2p, ring, none")
	fs.IntVar(&cfg.linkCap, "linkcap", 0, "channels per link for p2p/ring topologies (default 1)")
	fs.StringVar(&cfg.algo, "algo", "iter", "binding algorithm: init, iter, pcc, anneal, mincut, opt")
	fs.BoolVar(&cfg.gantt, "gantt", false, "print the schedule as a Gantt chart")
	fs.BoolVar(&cfg.dot, "dot", false, "print the bound graph in Graphviz DOT form")
	fs.BoolVar(&cfg.asm, "asm", false, "allocate registers and print a VLIW assembly listing")
	fs.BoolVar(&cfg.pressure, "pressure", false, "print per-cluster register pressure")
	fs.IntVar(&cfg.regs, "regs", 0, "register file size per cluster; 0 = unbounded, otherwise spill code is inserted to fit")
	fs.BoolVar(&cfg.verify, "verify", true, "execute the schedule cycle-accurately and check outputs")
	fs.BoolVar(&cfg.audit, "audit", false, "run the full invariant auditor on the result (binding, schedule, simulation, allocation)")
	fs.IntVar(&cfg.par, "par", 0, "worker-pool size for init/iter candidate evaluation; 0 = GOMAXPROCS, 1 = sequential (results are identical at any setting)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "binding time budget (e.g. 100ms); on expiry the best binding found so far is returned, marked degraded. 0 = no budget")
	fs.BoolVar(&cfg.useStore, "store", false, "consult the cross-request result store before searching (in-memory unless -store-dir is set); every hit is re-audited before being served")
	fs.StringVar(&cfg.storeDir, "store-dir", "", "directory of the persistent result store journal (implies -store); results survive across runs")
	fs.StringVar(&cfg.tracePath, "trace", "", "journal every search event to FILE as JSON lines")
	fs.BoolVar(&cfg.metrics, "metrics", false, "print per-phase timers and search counters after binding")
	fs.BoolVar(&cfg.explain, "explain", false, "report the icost breakdown behind each B-INIT choice and each accepted B-ITER move")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateInput(cfg.dfgPath, cfg.kernel); err != nil {
		fmt.Fprintln(stderr, "vbind:", err)
		return 2
	}
	ctx := context.Background()
	if sigc != nil {
		var stop func()
		ctx, stop = sigctx.WithSignals(ctx, sigc, hardExit)
		defer stop()
	}
	if err := run(ctx, stdout, cfg); err != nil {
		fmt.Fprintln(stderr, "vbind:", err)
		return 1
	}
	return 0
}

// validateInput enforces the -dfg/-kernel contract before any work
// starts: exactly one of the two must be given. Both and neither are the
// same usage error, reported in one line.
func validateInput(dfgPath, kernel string) error {
	if (dfgPath != "") == (kernel != "") {
		return fmt.Errorf("usage: exactly one of -dfg FILE or -kernel NAME is required")
	}
	return nil
}

func run(ctx context.Context, w io.Writer, cfg config) error {
	if err := validateInput(cfg.dfgPath, cfg.kernel); err != nil {
		return err
	}
	g, err := loadGraph(cfg.dfgPath, cfg.kernel)
	if err != nil {
		return err
	}
	dp, err := vliwbind.ParseDatapath(cfg.dpSpec, vliwbind.DatapathConfig{
		NumBuses: cfg.buses, MoveLat: cfg.moveLat,
		Topology: cfg.topology, LinkCap: cfg.linkCap,
	})
	if err != nil {
		return err
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	// Observability sinks, all optional, all passive.
	var sinks []vliwbind.Observer
	var journal *vliwbind.TraceJournal
	var traceFile *os.File
	if cfg.tracePath != "" {
		traceFile, err = os.Create(cfg.tracePath)
		if err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		defer traceFile.Close()
		journal = vliwbind.NewTraceJournal(traceFile)
		sinks = append(sinks, journal)
	}
	var metrics *vliwbind.Metrics
	if cfg.metrics {
		metrics = vliwbind.NewMetrics()
		sinks = append(sinks, metrics)
	}
	var explain *vliwbind.Explain
	if cfg.explain {
		explain = vliwbind.NewExplain()
		sinks = append(sinks, explain)
	}
	observer := vliwbind.MultiObserver(sinks...)

	// The cross-request result store: journal-backed when a directory is
	// given, otherwise in-memory (useful mostly for exercising the path —
	// a single CLI run has no second request to serve). Only the
	// engine-backed algorithms (init, iter) consult it.
	var resStore *vliwbind.ResultStore
	if cfg.storeDir != "" {
		resStore, err = vliwbind.OpenStore(cfg.storeDir)
		if err != nil {
			return err
		}
		defer resStore.Close()
	} else if cfg.useStore {
		resStore = vliwbind.NewMemoryStore(0)
	}

	var cstats vliwbind.CacheStats
	opts := vliwbind.Options{Parallelism: cfg.par, Stats: &cstats, Observer: observer, Store: resStore}
	var res *vliwbind.Result
	t0 := time.Now()
	switch cfg.algo {
	case "init":
		res, err = vliwbind.InitialBindContext(ctx, g, dp, opts)
	case "iter":
		res, err = vliwbind.BindContext(ctx, g, dp, opts)
	case "pcc":
		res, err = vliwbind.BindPCCContext(ctx, g, dp, vliwbind.PCCOptions{Observer: observer})
	case "anneal":
		res, err = vliwbind.BindAnnealContext(ctx, g, dp, vliwbind.AnnealOptions{Observer: observer})
	case "mincut":
		res, err = vliwbind.BindMinCutContext(ctx, g, dp, vliwbind.MinCutOptions{})
	case "opt":
		res, err = vliwbind.OptimalContext(ctx, g, dp, 0)
	default:
		return fmt.Errorf("unknown algorithm %q (want init, iter, pcc, anneal, mincut or opt)", cfg.algo)
	}
	if observer != nil {
		observer.Event(vliwbind.TraceEvent{Type: "phase", Kernel: g.Name(),
			Name: "vbind." + cfg.algo, DurNs: time.Since(t0).Nanoseconds()})
	}
	if err != nil {
		return err
	}
	stats := g.Stats()
	fmt.Fprintf(w, "graph %s: N_V=%d N_CC=%d L_CP=%d\n", g.Name(), stats.NumOps, stats.NumComponents, stats.CriticalPath)
	fmt.Fprintf(w, "datapath %s buses=%d lat(move)=%d\n", dp, dp.NumBuses(), dp.MoveLat())
	if dp.Topology() != vliwbind.TopoBus {
		fmt.Fprintf(w, "interconnect %s: %d links x %d channels, max route %d hops\n",
			dp.Topology(), dp.NumLinks(), dp.LinkCapacity(0), dp.MaxHops())
	}
	fmt.Fprintf(w, "%s: L=%d moves=%d\n", cfg.algo, res.L(), res.Moves())
	if res.Moves() > 0 {
		var occ strings.Builder
		for l, n := range res.Schedule.LinkOccupancy() {
			if n > 0 {
				fmt.Fprintf(&occ, " %s=%d", dp.LinkName(l), n)
			}
		}
		fmt.Fprintf(w, "link occupancy:%s\n", occ.String())
	}
	if res.Degraded {
		fmt.Fprintf(w, "degraded: budget expired before the search completed (%v); result is the audited best-so-far\n", res.Budget)
	}
	if h, ms := cstats.Hits(), cstats.Misses(); h+ms > 0 {
		fmt.Fprintf(w, "evaluation cache: %d scheduled, %d served from cache (%.0f%% hit rate)\n",
			ms, h, 100*float64(h)/float64(h+ms))
	}
	if resStore != nil {
		fmt.Fprintf(w, "result store: %d hit(s), %d miss(es), %d eviction(s)\n",
			cstats.StoreHits(), cstats.StoreMisses(), cstats.StoreEvicts())
	}
	if cfg.regs > 0 {
		sr, err := vliwbind.BindWithSpills(res.Graph, dp, res.Binding, cfg.regs)
		if err != nil {
			return err
		}
		res = sr.Result
		fmt.Fprintf(w, "fit to %d-entry register files: %d spills, L=%d (+%d)\n",
			cfg.regs, sr.Spills, res.L(), res.L()-sr.BaseL)
	}
	if cfg.audit {
		if err := vliwbind.AuditResult(res); err != nil {
			return fmt.Errorf("result failed audit: %w", err)
		}
		fmt.Fprintln(w, "audited: binding, schedule, simulation and allocation invariants hold")
	}
	if cfg.verify {
		in := make([]float64, g.NumInputs())
		for i := range in {
			in[i] = float64(i + 1)
		}
		if err := vliwbind.VerifySchedule(res.Schedule, in); err != nil {
			return fmt.Errorf("schedule failed cycle-accurate verification: %w", err)
		}
		fmt.Fprintln(w, "verified: cycle-accurate execution matches reference evaluation")
	}
	if cfg.pressure {
		rep := vliwbind.RegisterPressure(res.Schedule)
		fmt.Fprintf(w, "register pressure per cluster: %v (peak %d)\n", rep.MaxLive, rep.Peak)
	}
	if cfg.gantt {
		fmt.Fprint(w, vliwbind.Gantt(res.Schedule))
	}
	if cfg.dot {
		fmt.Fprint(w, vliwbind.GraphDot(res.Bound, res.BoundBinding))
	}
	if cfg.asm {
		alloc, err := vliwbind.AllocateRegisters(res.Schedule, 0)
		if err != nil {
			return err
		}
		if err := vliwbind.CheckRegisters(res.Schedule, alloc); err != nil {
			return fmt.Errorf("register allocation failed its own check: %w", err)
		}
		fmt.Fprint(w, vliwbind.EmitAssembly(res.Schedule, alloc))
	}
	if explain != nil {
		fmt.Fprint(w, explain.Render())
	}
	if metrics != nil {
		fmt.Fprint(w, metrics.Dump())
	}
	if journal != nil {
		if err := journal.Flush(); err != nil {
			return fmt.Errorf("trace journal: %w", err)
		}
		fmt.Fprintf(w, "trace: %d events written to %s\n", journal.Len(), cfg.tracePath)
	}
	return nil
}

func loadGraph(dfgPath, kernel string) (*vliwbind.Graph, error) {
	switch {
	case dfgPath != "":
		f, err := os.Open(dfgPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return vliwbind.ParseGraph(f)
	case kernel != "":
		k, err := vliwbind.KernelByName(kernel)
		if err != nil {
			return nil, err
		}
		return k.Build(), nil
	default:
		return nil, fmt.Errorf("need -dfg FILE or -kernel NAME")
	}
}
