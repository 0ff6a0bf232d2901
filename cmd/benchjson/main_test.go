package main

import (
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: vliwbind/internal/problem
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEvaluateVirtual-8   	   68648	     17000 ns/op	       0 B/op	       0 allocs/op
BenchmarkEvaluateVirtual-8   	   70000	     19000 ns/op	       0 B/op	       0 allocs/op
BenchmarkEvaluateVirtual-8   	   69000	     17500 ns/op	       0 B/op	       0 allocs/op
BenchmarkEvaluateMaterialized-8 	   22000	     52000 ns/op	       0 B/op	       0 allocs/op
BenchmarkEvaluateMaterialized-8 	   21000	     54000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	vliwbind/internal/problem	12.3s
`

func mustBuild(t *testing.T, out string) *Report {
	t.Helper()
	rep, err := build(strings.Split(out, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBuildMediansAndLines(t *testing.T) {
	rep := mustBuild(t, benchOut)

	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rep.Benchmarks))
	}
	hit := rep.Benchmarks[0]
	if hit.Name != "BenchmarkEvaluateVirtual" {
		t.Errorf("first benchmark %q, want BenchmarkEvaluateVirtual (input order)", hit.Name)
	}
	if hit.Runs != 3 {
		t.Errorf("Runs = %d, want 3", hit.Runs)
	}
	if hit.NsPerOp != 17500 {
		t.Errorf("median ns/op = %v, want 17500 (odd count picks the middle)", hit.NsPerOp)
	}
	if hit.AllocsPerOp != 0 {
		t.Errorf("allocs/op = %v, want 0", hit.AllocsPerOp)
	}
	full := rep.Benchmarks[1]
	if full.NsPerOp != 53000 {
		t.Errorf("even-count median = %v, want 53000 (mean of middles)", full.NsPerOp)
	}

	// The lines array must reconstruct benchstat-consumable input: all
	// five result lines plus the four header keys, nothing else (no
	// PASS/ok noise).
	if len(rep.Lines) != 9 {
		t.Fatalf("kept %d lines, want 9:\n%s", len(rep.Lines), strings.Join(rep.Lines, "\n"))
	}
	for _, l := range rep.Lines {
		if strings.HasPrefix(l, "PASS") || strings.HasPrefix(l, "ok") {
			t.Errorf("kept non-benchstat line %q", l)
		}
	}
}

func TestBuildRejectsEmptyInput(t *testing.T) {
	if _, err := build([]string{"PASS", "ok  \tpkg\t0.1s"}); err == nil {
		t.Fatal("build accepted input with no benchmark lines")
	}
}

func TestBaseNameStripsOnlyProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkEvaluateVirtual-8": "BenchmarkEvaluateVirtual",
		"BenchmarkEvaluateVirtual":   "BenchmarkEvaluateVirtual",
		"BenchmarkDCT-DIT-2-16":      "BenchmarkDCT-DIT-2",
		"BenchmarkDCT-DIT":           "BenchmarkDCT-DIT", // DIT is not an int
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRatioGatePassAndFail(t *testing.T) {
	rep := mustBuild(t, benchOut) // ratio = 53000/17500 ≈ 3.03

	failed, err := applyGates(rep,
		[]string{"BenchmarkEvaluateMaterialized/BenchmarkEvaluateVirtual>=3.0"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("3.0 gate failed on ratio ~3.03: %v", failed)
	}
	if len(rep.Gates) != 1 || !rep.Gates[0].Pass {
		t.Fatalf("gate verdict not recorded as pass: %+v", rep.Gates)
	}
	if r := rep.Gates[0].Ratio; r < 3.02 || r > 3.04 {
		t.Errorf("recorded ratio %v, want ~3.03", r)
	}

	rep = mustBuild(t, benchOut)
	failed, err = applyGates(rep,
		[]string{"BenchmarkEvaluateMaterialized/BenchmarkEvaluateVirtual>=10"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 {
		t.Fatalf("10x gate passed on ratio ~3.03")
	}
	// The verdict is still recorded in the report, so the committed
	// file shows the failure rather than omitting it.
	if len(rep.Gates) != 1 || rep.Gates[0].Pass {
		t.Fatalf("failed gate not recorded: %+v", rep.Gates)
	}
}

func TestZeroAllocGate(t *testing.T) {
	rep := mustBuild(t, benchOut)
	failed, err := applyGates(rep, nil, []string{"BenchmarkEvaluateVirtual"})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("zero gate failed on 0 allocs/op: %v", failed)
	}

	withAllocs := benchOut + "BenchmarkLeaky-8   	  100	  5000 ns/op	  32 B/op	  2 allocs/op\n"
	rep = mustBuild(t, withAllocs)
	failed, err = applyGates(rep, nil, []string{"BenchmarkLeaky"})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 {
		t.Fatal("zero gate passed on 2 allocs/op")
	}
}

// TestGateErrors pins the fail-loudly contract for gates that reference
// benchmarks absent from the input — the exact failure mode of a gated
// benchmark being renamed or silently dropped from a bench run. Every
// reference position (numerator, denominator, zero-alloc name) must be a
// hard error naming the missing benchmark, never a silently-passing
// gate.
func TestGateErrors(t *testing.T) {
	rep := mustBuild(t, benchOut)
	if _, err := applyGates(rep, []string{"BenchmarkNope/BenchmarkEvaluateVirtual>=1"}, nil); err == nil {
		t.Error("gate on unknown numerator did not error")
	} else if !strings.Contains(err.Error(), "BenchmarkNope") {
		t.Errorf("numerator error %q does not name the missing benchmark", err)
	}
	if _, err := applyGates(rep, []string{"BenchmarkEvaluateVirtual/BenchmarkNope>=1"}, nil); err == nil {
		t.Error("gate on unknown denominator did not error")
	}
	if _, err := applyGates(rep, []string{"garbage"}, nil); err == nil {
		t.Error("malformed gate spec did not error")
	}
	if _, err := applyGates(rep, nil, []string{"BenchmarkNope"}); err == nil {
		t.Error("zero gate on unknown benchmark did not error")
	} else if !strings.Contains(err.Error(), "BenchmarkNope") {
		t.Errorf("zero-gate error %q does not name the missing benchmark", err)
	}
	// An erroring gate set must not leave half-recorded verdicts in the
	// report that a later write would commit as if evaluated.
	if len(rep.Gates) != 0 {
		t.Errorf("errored gate evaluation recorded %d verdict(s): %+v", len(rep.Gates), rep.Gates)
	}
}
