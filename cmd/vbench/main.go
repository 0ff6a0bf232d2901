// Command vbench is the repository's benchmark. It runs one named
// workload per process, from a seed that is the workload's only input,
// and measures the binder where its users meet it: compile time through
// the vliwbind facade, served latency through the vliwbindd handler, and
// design-space sweeps through the explorer.
//
// Usage:
//
//	vbench --workload bind-paper --seed 1 --seconds 20 --trace 0
//	vbench --workload serve-mix --seed 1 --seconds 20 --trace 1
//	vbench -compare old/*.json -- new/*.json
//
// A run prints every metric by name and unit and, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones, taken from spans that vbench
// records around its calls into each layer (the spans are written to a
// JSONL file next to the ledger). Every run also writes a JSON ledger
// with all of its numbers, and -compare reads two sets of ledgers and
// judges each (workload, metric) against the bounds in BENCHMARK.json.
//
// Every output is checked: each binding is audited end to end, bind-paper
// rows must reproduce the B-ITER column of cmd/vliwtab's golden tables,
// and repeated inputs must reproduce their first (L, M). A wrong output
// makes the run exit 1.
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings. The flags fill Workload through GraphSeed;
// MaxOps and Setups exist for the self-tests, which keep runs tiny.
type config struct {
	Workload  string
	Seed      int64
	Seconds   float64 // length of the timed phase
	Trace     bool
	Root      string // checkout root; inputs are read relative to it
	Out       string // directory for ledgers, spans and scratch stores
	GraphSeed int64  // draws bind-random's graphs
	MaxOps    int    // caps each timed phase, bind warm-ups and layer probes; 0 = no cap
	Setups    int    // set-up repetitions; 0 selects defaultSetups
}

// defaultSetups is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one the timed phase uses.
const defaultSetups = 3

func (c config) setups() int {
	if c.Setups > 0 {
		return c.Setups
	}
	return defaultSetups
}

// capped returns n, or MaxOps when that is smaller.
func (c config) capped(n int) int {
	if c.MaxOps > 0 {
		return min(n, c.MaxOps)
	}
	return n
}

func (c config) duration() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// realMain runs vbench. Exit codes: 0 success, 1 a wrong output, a
// failed run or (with -compare) a regression, 2 usage error.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadList())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: report per-layer metrics and write spans")
	out := fs.String("out", filepath.Join(".bench_build", "vbench"), "directory for ledgers, spans and scratch stores")
	graphSeed := fs.Int64("graph-seed", defaultGraphSeed, "seed of bind-random's graph population (another one re-checks a claim on unseen graphs)")
	compare := fs.Bool("compare", false, "compare ledgers against BENCHMARK.json: vbench -compare OLD... -- NEW...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare("BENCHMARK.json", fs.Args(), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "vbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "vbench: unknown workload %q; want one of %s\n", *workload, workloadList())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "vbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Root: ".", Out: *out, GraphSeed: *graphSeed}

	led, spans, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "vbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if err := writeOutputs(cfg, led, spans); err != nil {
		fmt.Fprintf(stderr, "vbench: %v\n", err)
		return 1
	}
	printResult(stdout, cfg, led)
	for _, w := range led.Wrong {
		fmt.Fprintf(stderr, "vbench: wrong output: %s\n", w)
	}
	if !led.Correct {
		return 1
	}
	return 0
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger is everything one run measured. Metrics holds the end-to-end
// metrics (always from untraced operations), Layers the per-layer ones
// (traced runs only), Counts the exact totals behind them. HostFactor
// is the factor the end-to-end time metrics were scaled by (calib.go):
// a time divided by it is the time as this host measured it.
type ledger struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	HostFactor float64           `json:"host_factor"`
	Metrics    map[string]metric `json:"metrics"`
	Layers     map[string]metric `json:"layers,omitempty"`
	Counts     map[string]int64  `json:"counts"`
	Wrong      []string          `json:"wrong,omitempty"`
}

// execute sets the workload up, measures it, probes its layers on a
// traced run, and assembles the ledger. An error means the run could
// not produce trustworthy numbers at all; wrong outputs are reported in
// the ledger instead.
func execute(cfg config) (*ledger, []span, error) {
	w := workloads[cfg.Workload]()
	defer w.close()
	e := newEnv(cfg)
	for i := 0; i < cfg.setups(); i++ {
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		e.setups = append(e.setups, time.Since(t0))
	}
	if err := w.measure(e); err != nil {
		return nil, nil, err
	}
	if cfg.Trace {
		if err := probeLayers(e); err != nil {
			return nil, nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	led := e.ledger()
	return led, e.tr.all(), nil
}

// outputBase names a run's files: <out>/<workload>-seed<seed>[-trace].
func outputBase(cfg config) string {
	name := fmt.Sprintf("%s-seed%d", cfg.Workload, cfg.Seed)
	if cfg.Trace {
		name += "-trace"
	}
	return filepath.Join(cfg.Out, name)
}

// writeOutputs writes the ledger and, for a traced run, the spans.
func writeOutputs(cfg config, led *ledger, spans []span) error {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outputBase(cfg)+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !cfg.Trace {
		return nil
	}
	return writeSpans(outputBase(cfg)+".spans.jsonl", spans)
}

// printResult prints the reported metrics one per line, then the result
// object as the last line.
func printResult(w io.Writer, cfg config, led *ledger) {
	ms := led.Metrics
	if cfg.Trace {
		ms = led.Layers
	}
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed %d: %d attempted, %d failed, correct=%t, host factor %.4f\n",
		cfg.Workload, cfg.Seed, led.Attempted, led.Failed, led.Correct, led.HostFactor)
	for _, name := range names {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{led.Correct, led.Attempted, led.Failed, ms})
	fmt.Fprintln(w, string(line))
}
