package textio

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
)

const sample = `
# a small kernel
dfg demo
in x y
op v1 add x y
op v2 muli 0.5 v1
op v3 sub v2 y
op t1 move v1
op v4 add v3 t1
out v4 v2
`

func TestParseSample(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "demo" {
		t.Errorf("name = %q", g.Name())
	}
	if g.NumNodes() != 5 || g.NumOps() != 4 || g.NumMoves() != 1 {
		t.Errorf("nodes/ops/moves = %d/%d/%d", g.NumNodes(), g.NumOps(), g.NumMoves())
	}
	if g.NumInputs() != 2 {
		t.Errorf("inputs = %d", g.NumInputs())
	}
	v2 := g.NodeByName("v2")
	if v2.Op() != dfg.OpMulImm || v2.Imm() != 0.5 {
		t.Errorf("v2 = %s imm %v", v2.Op(), v2.Imm())
	}
	if len(g.Outputs()) != 2 || g.Outputs()[0].Name() != "v4" {
		t.Errorf("outputs = %v", g.Outputs())
	}
	t1 := g.NodeByName("t1")
	if !t1.IsMove() {
		t.Error("t1 not parsed as move")
	}
}

func TestRoundTrip(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := PrintString(g)
	g2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if PrintString(g2) != text {
		t.Errorf("round trip unstable:\n%s\nvs\n%s", text, PrintString(g2))
	}
}

func TestRoundTripKernels(t *testing.T) {
	for _, k := range kernels.All() {
		g := k.Build()
		text := PrintString(g)
		g2, err := ParseString(text)
		if err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		s1, s2 := g.Stats(), g2.Stats()
		if s1.NumOps != s2.NumOps || s1.CriticalPath != s2.CriticalPath || s1.NumComponents != s2.NumComponents {
			t.Errorf("%s: stats changed across round trip: %+v vs %+v", k.Name, s1, s2)
		}
		// Same semantics on a probe input.
		in := make([]float64, g.NumInputs())
		for i := range in {
			in[i] = float64(i) - 2
		}
		o1, err1 := dfg.EvalOutputs(g, in)
		o2, err2 := dfg.EvalOutputs(g2, in)
		if err1 != nil || err2 != nil {
			t.Errorf("%s: eval errors %v %v", k.Name, err1, err2)
			continue
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Errorf("%s: output %d differs: %v vs %v", k.Name, i, o1[i], o2[i])
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no dfg":            "in x\n",
		"op before dfg":     "op v1 add x y\n",
		"in before dfg":     "in x\n dfg g\n",
		"dup dfg":           "dfg a\ndfg b\n",
		"dfg extra":         "dfg a b\n",
		"unknown op":        "dfg g\nin x\nop v1 frob x\n",
		"unknown operand":   "dfg g\nin x\nop v1 add x z\n",
		"dup name":          "dfg g\nin x\nop x add x x\n",
		"dup op name":       "dfg g\nin x\nop v neg x\nop v neg x\n",
		"bad arity":         "dfg g\nin x\nop v1 add x\n",
		"missing imm":       "dfg g\nin x\nop v1 muli\n",
		"bad imm":           "dfg g\nin x\nop v1 muli abc x\n",
		"unknown out":       "dfg g\nin x\nop v1 neg x\nout v9\n",
		"input as out":      "dfg g\nin x\nop v1 neg x\nout x\n",
		"short op":          "dfg g\nop v1\n",
		"unknown directive": "dfg g\nzap v1\n",
	}
	for name, text := range cases {
		if _, err := ParseString(text); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

// TestParseErrorPositions pins the 1-based line number in parse errors,
// counting blank and comment lines the way an editor does. The deferred
// output-resolution errors (raised only after the whole file is read)
// must point at the out line the name appeared on, not at end-of-file.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name, text        string
		wantPos, wantWhat string
	}{
		{"dup dfg", "dfg a\ndfg b\n", "line 2", "duplicate dfg"},
		{"unknown op after comment", "# header\ndfg g\nin x\nop v1 frob x\n", "line 4", "frob"},
		{"blank lines counted", "dfg g\n\n\nin x\n\nop v1 add x z\n", "line 6", "unknown operand"},
		{"comment lines counted", "dfg g\n# one\n# two\nin x\nop v1 add x\n", "line 5", "operands"},
		{"unknown directive", "dfg g\nin x\n\nzap v1\n", "line 4", "unknown directive"},
		{"unknown output names its out line", "dfg g\nin x\nop a neg x\n\nout z\n", "line 5", "unknown output"},
		{"input as output names its out line", "# hdr\ndfg g\nin x\nop a neg x\nout a\nout x\n", "line 6", "is an input"},
		{"dup output across a comment", "dfg g\nin x\nop a neg x\nout a\n# gap\nout a\n", "line 6", "duplicate output"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.text)
			if err == nil {
				t.Fatal("parse succeeded, want positioned error")
			}
			msg := err.Error()
			if !strings.Contains(msg, c.wantPos) || !strings.Contains(msg, c.wantWhat) {
				t.Errorf("err = %q, want it to name %q and %q", msg, c.wantPos, c.wantWhat)
			}
		})
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	g, err := ParseString("# header\n\ndfg g\n  # indented comment\nin x\n\nop v1 neg x\nout v1\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumOps() != 1 {
		t.Errorf("ops = %d", g.NumOps())
	}
}

func TestMultipleOutLines(t *testing.T) {
	g, err := ParseString("dfg g\nin x\nop a neg x\nop b neg x\nout a\nout b\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Outputs()) != 2 {
		t.Errorf("outputs = %d, want 2", len(g.Outputs()))
	}
}

// TestDuplicateOutputRejected: repeating a name on out lines used to be
// silently collapsed by the builder, so the file claimed more live-outs
// than the graph had. Parse now rejects the repeat outright.
func TestDuplicateOutputRejected(t *testing.T) {
	for name, text := range map[string]string{
		"same line":    "dfg g\nin x\nop a neg x\nout a a\n",
		"across lines": "dfg g\nin x\nop a neg x\nout a\nout a\n",
	} {
		if _, err := ParseString(text); err == nil || !strings.Contains(err.Error(), "duplicate output") {
			t.Errorf("%s: err = %v, want duplicate-output rejection", name, err)
		}
	}
	// Distinct names over multiple out lines remain legal, and a printed
	// graph (one mention per output) still reparses cleanly.
	g := mustParse(t, "dfg g\nin x\nop a neg x\nop b neg a\nout b a\n")
	if _, err := ParseString(PrintString(g)); err != nil {
		t.Errorf("round trip broken by duplicate-output check: %v", err)
	}
}

func TestPrintImmPrecision(t *testing.T) {
	b := dfg.NewBuilder("p")
	x := b.Input("x")
	b.Output(b.MulImm(x, 0.49039264020161522))
	g := b.Graph()
	g2, err := ParseString(PrintString(g))
	if err != nil {
		t.Fatal(err)
	}
	if got := g2.Nodes()[0].Imm(); got != g.Nodes()[0].Imm() {
		t.Errorf("immediate lost precision: %v vs %v", got, g.Nodes()[0].Imm())
	}
}

func TestParseStopsOnForwardReference(t *testing.T) {
	if _, err := ParseString("dfg g\nin x\nop a add x b\nop b neg x\n"); err == nil {
		t.Error("forward reference accepted")
	}
	if !strings.Contains(PrintString(mustParse(t, sample)), "dfg demo") {
		t.Error("header missing")
	}
}

func mustParse(t *testing.T, s string) *dfg.Graph {
	t.Helper()
	g, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpillOpsRoundTrip(t *testing.T) {
	// Spill stores and reloads (inserted by internal/codegen) must
	// survive the text format like any other op.
	src := "dfg sp\nin x y\nop a add x y\nop s st a\nop l ld s\nop b add l y\nout b\n"
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeByName("s").Op() != dfg.OpStore || g.NodeByName("l").Op() != dfg.OpLoad {
		t.Fatal("spill ops parsed wrong")
	}
	g2, err := ParseString(PrintString(g))
	if err != nil {
		t.Fatal(err)
	}
	out, err := dfg.EvalOutputs(g2, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 8 { // (2+3) stored/loaded, +3
		t.Errorf("spilled round trip computes %v, want 8", out[0])
	}
}

// TestLongLines pins the line cap: the scanner's buffer grows on demand,
// so a 200 KiB line still parses, while a line past maxLineBytes is an
// error rather than a silently truncated graph.
func TestLongLines(t *testing.T) {
	var in strings.Builder
	in.WriteString("dfg wide\nin")
	n := 0
	for ; in.Len() < 200<<10; n++ {
		fmt.Fprintf(&in, " x%d", n)
	}
	fmt.Fprintf(&in, "\nop v1 add x0 x%d\nout v1\n", n-1)
	g, err := ParseString(in.String())
	if err != nil {
		t.Fatalf("200 KiB line: %v", err)
	}
	if g.NumOps() != 1 {
		t.Errorf("parsed %d ops, want 1", g.NumOps())
	}

	long := "dfg big\n# " + strings.Repeat("a", maxLineBytes) + "\n"
	if _, err := ParseString(long); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("line over %d bytes: err = %v, want bufio.ErrTooLong", maxLineBytes, err)
	}
}
