package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 150}
	for _, c := range []struct {
		name        string
		old, cur    []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same runs", base, base, true, 0.1, "unchanged"},
		{"within bound", base, scale(base, 1.05), true, 0.1, "unchanged"},
		{"worse beyond bound", base, scale(base, 1.2), true, 0.1, "worse"},
		{"better beyond bound", base, scale(base, 0.8), true, 0.1, "better"},
		{"higher is better", base, scale(base, 0.8), false, 0.1, "worse"},
		{"separated gain inside bound", base, scale(base, 0.93), true, 0.1, "better"},
		{"noisy overlap", noisy, scale(noisy, 1.05), true, 0.1, "unresolved"},
		{"noisy but separated", noisy, scale(noisy, 0.3), true, 0.1, "better"},
		{"no bound, separated", base, scale(base, 1.1), true, -1, "worse"},
		{"no bound, overlap", base, scale(base, 1.005), true, -1, "unchanged"},
		{"no bound, noisy", noisy, scale(noisy, 1.6), true, -1, "unresolved"},
		{"zero stays zero", []float64{0, 0, 0}, []float64{0, 0, 0}, false, -1, "unchanged"},
	} {
		if got, _, _ := judge(c.old, c.cur, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareLedgers drives -compare end to end on synthetic ledgers.
func TestCompareLedgers(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, l ledger) string {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{
		"end_to_end": [
			{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
			{"name": "goodput_rps", "unit": "req/s", "better": "higher", "bound": 0.1}
		],
		"per_layer": [{"name": "store.get_us", "unit": "us", "better": "lower"}]
	}`), 0o644)
	led := func(lat, rps float64) ledger {
		return ledger{Workload: "serve-mix", Correct: true, Metrics: map[string]metric{
			"latency_p50_ms": {lat, "ms"}, "goodput_rps": {rps, "req/s"}},
			Layers: map[string]metric{"store.get_us": {0.2, "us"}}}
	}
	var old, same, slower, failing, wrong []string
	for i, v := range []float64{10, 10.1, 9.9} {
		old = append(old, write("old"+string(rune('a'+i))+".json", led(v, 200)))
		same = append(same, write("same"+string(rune('a'+i))+".json", led(v+0.05, 201)))
		slower = append(slower, write("slow"+string(rune('a'+i))+".json", led(v*1.5, 200)))
		// Faster on every metric, but with failed operations or a wrong
		// output: still worse.
		f, w := led(v*0.5, 300), led(v*0.5, 300)
		if i == 1 {
			f.Failed = 3
		}
		if i == 2 {
			w.Correct = false
		}
		failing = append(failing, write("fail"+string(rune('a'+i))+".json", f))
		wrong = append(wrong, write("wrong"+string(rune('a'+i))+".json", w))
	}
	run := func(cur []string) (int, string) {
		var out, errb bytes.Buffer
		args := append(append(append([]string{}, old...), "--"), cur...)
		code := runCompare(bench, args, &out, &errb)
		return code, out.String() + errb.String()
	}
	if code, out := run(same); code != 0 || strings.Contains(out, "worse") || !strings.Contains(out, "unchanged") {
		t.Errorf("same runs: exit %d\n%s", code, out)
	}
	code, out := run(slower)
	if code != 1 {
		t.Errorf("slower runs: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"latency_p50_ms", "worse", "goodput_rps", "store.get_us"} {
		if !strings.Contains(out, want) {
			t.Errorf("slower runs: output lacks %q\n%s", want, out)
		}
	}
	for name, cur := range map[string][]string{"failed operations": failing, "a wrong output": wrong} {
		if code, out := run(cur); code != 1 || !strings.Contains(out, "wrong/failed") || !strings.Contains(out, "worse") {
			t.Errorf("%s: exit %d, want 1 and a worse wrong/failed row\n%s", name, code, out)
		}
	}
	var errb bytes.Buffer
	if code := runCompare(bench, old, &bytes.Buffer{}, &errb); code != 2 {
		t.Errorf("no -- separator: exit %d, want 2", code)
	}
}
