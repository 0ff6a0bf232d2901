package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchFile is BENCHMARK.json as the self-tests read it.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchFile
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// tinyConfig runs a workload through the full code path at a handful of
// operations: one set-up, at most six operations per timed phase. Seed
// 8's first operations miss bind-paper's slowest rows, which keeps the
// self-tests short.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{Workload: workload, Seed: 8, Seconds: 1, Trace: trace, GraphSeed: defaultGraphSeed,
		Root: "../..", Out: t.TempDir(), MaxOps: 6, Setups: 1}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics requires every listed metric, with its unit, and nothing
// else.
func checkMetrics(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("ledger has %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, m := range want {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
		}
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
}

// TestWorkloads runs every workload untraced and traced at a tiny
// operation count and checks the ledgers against BENCHMARK.json, the
// correctness of every output, the observer's passivity and the spans.
func TestWorkloads(t *testing.T) {
	def := readBenchFile(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, vbench has %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("vbench has no workload %q", w.Name)
			}
			plain, _, err := execute(tinyConfig(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			traced, spans, err := execute(tinyConfig(t, w.Name, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, led := range []*ledger{plain, traced} {
				if !led.Correct || led.Failed != 0 || led.Counts["errors"] != 0 {
					t.Errorf("trace=%t: correct=%t, %d of %d failed, %d errors, wrong: %q",
						led.Trace, led.Correct, led.Failed, led.Attempted, led.Counts["errors"], led.Wrong)
				}
			}
			checkMetrics(t, plain.Metrics, def.EndToEnd)
			checkMetrics(t, traced.Layers, def.PerLayer)
			// Nothing failed, was rejected or was degraded.
			for _, r := range []string{"pass_ratio", "admitted_ratio", "complete_ratio"} {
				if v := plain.Metrics[r].Value; v != 1 {
					t.Errorf("%s = %g, want 1", r, v)
				}
			}
			if plain.HostFactor <= 0 {
				t.Errorf("host factor %g, want positive", plain.HostFactor)
			}
			if w.Name == "explore-sweep" && traced.Layers["explore.pruned_ratio"].Value == 0 {
				t.Error("explore-sweep pruned no point")
			}
			for _, c := range []string{"sched_len_total", "moves_total"} {
				if plain.Counts[c] == 0 || plain.Counts[c] != traced.Counts[c] {
					t.Errorf("%s: untraced %d, traced %d; want equal and non-zero", c, plain.Counts[c], traced.Counts[c])
				}
			}
			if len(spans) == 0 {
				t.Fatal("a traced run recorded no spans")
			}
			for _, s := range spans {
				if s.Self < 0 || s.End < s.Start {
					t.Fatalf("span %+v has negative self time or duration", s)
				}
			}
		})
	}
}

// TestResultLine checks the last line of a run's output: exactly the
// four keys, and the metrics of its kind.
func TestResultLine(t *testing.T) {
	cfg := tinyConfig(t, "explore-sweep", false)
	led, _, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printResult(&out, cfg, led)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Errorf("result line has keys %q", keys)
	}
	var ms map[string]metric
	if err := json.Unmarshal(res["metrics"], &ms); err != nil || !reflect.DeepEqual(ms, led.Metrics) {
		t.Errorf("result metrics %v, ledger %v (%v)", ms, led.Metrics, err)
	}
}

// TestInputsFollowSeed checks that a seed fixes a workload's inputs and
// that another seed changes them.
func TestInputsFollowSeed(t *testing.T) {
	randomText := func(seed int64) string {
		inputs, err := randomInputs(config{GraphSeed: seed, Root: "../.."})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, in := range inputs {
			b.WriteString(in.name + "\n" + printGraph(in.g))
		}
		return b.String()
	}
	serveText := func(seed int64) string {
		var s serveMix
		if err := s.plan(config{Seed: seed, Seconds: 1}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, j := range s.jobs {
			b.Write(j.body)
		}
		return b.String()
	}
	orderText := func(seed int64) string {
		var b strings.Builder
		for p := 0; p < 3; p++ {
			for _, i := range passOrder(seed, p, 37) {
				b.WriteString(string(rune('A' + i)))
			}
		}
		return b.String()
	}
	for name, gen := range map[string]func(int64) string{
		"bind-random graph seed": randomText, "serve-mix": serveText, "pass order": orderText,
	} {
		if gen(3) != gen(3) {
			t.Errorf("%s: seed 3 gave two different inputs", name)
		}
		if gen(3) == gen(4) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", name)
		}
	}
}

// TestGoldenCoversPaperRows checks the golden parser on the real file.
func TestGoldenCoversPaperRows(t *testing.T) {
	inputs, err := paperInputs(config{Root: "../.."})
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 37 {
		t.Fatalf("%d rows, want 37", len(inputs))
	}
	if w := *inputs[0].want; w != [2]int{14, 0} {
		t.Errorf("DCT-DIF [1,1|1,1] B-ITER = %v, want 14/0", w)
	}
}

// TestSelfTime checks self time against overlapping children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i, s := range tr.all() {
		if s.Self != want[i] {
			t.Errorf("span %s: self %d, want %d", s.Name, s.Self, want[i])
		}
	}
}
