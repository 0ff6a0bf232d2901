package textio

import (
	"math"
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
)

// FuzzParse checks the parser never panics and that everything it
// accepts is a structurally valid graph that survives a print/parse
// round trip. Run the seed corpus with `go test`; fuzz deeper with
// `go test -fuzz=FuzzParse ./internal/textio`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"dfg g\n",
		"dfg g\nin x y\nop a add x y\nout a\n",
		"dfg g\nin x\nop a muli 0.5 x\nop b move a\nout b\n",
		"dfg g\nin x\nop a neg x\nop b neg a\nop c add a b\nout c\n",
		"# comment\n\ndfg g\nin x\nop a neg x\nout a\nout a\n", // now rejected: duplicate output
		"dfg g\nin x\nop a neg x\nout a a\n",                   // rejected: duplicate on one line
		"dfg g\nin x\nop a muli 1e308 x\nout a\n",
		"dfg g\nin x\nop a add x x\nout a\n",
		"in x\nop a neg x\n",
		"dfg g\nop a add b c\n",
		"dfg g\nin x\nop x neg x\n",
		"dfg g\nin x\nop a muli nan x\n",
		"zap\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseString(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if verr := dfg.Validate(g); verr != nil {
			t.Fatalf("parser accepted an invalid graph: %v\ninput:\n%s", verr, input)
		}
		printed := PrintString(g)
		g2, err := ParseString(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\nprinted:\n%s", err, printed)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumInputs() != g.NumInputs() ||
			len(g2.Outputs()) != len(g.Outputs()) {
			t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
				g.NumNodes(), g.NumInputs(), len(g.Outputs()),
				g2.NumNodes(), g2.NumInputs(), len(g2.Outputs()))
		}
	})
}

// FuzzTextioRoundTrip: anything the parser accepts must print to a
// fixpoint (print ∘ parse ∘ print == print) and keep reference semantics
// bit-identical across the round trip. Seeded from the full kernel suite
// plus generated random DAGs, so the fuzzer starts from realistic files.
func FuzzTextioRoundTrip(f *testing.F) {
	for _, k := range kernels.All() {
		f.Add(PrintString(k.Build()))
	}
	for _, seed := range []int64{1, 7, 42} {
		f.Add(PrintString(kernels.Random(kernels.RandomConfig{Ops: 24, Seed: seed})))
	}
	f.Add("dfg g\nin x y\nop a add x y\nop m move a\nout m a\n")
	f.Add("dfg g\nin x\nop a muli -0.25 x\nop s st a\nop l ld s\nout l\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseString(input)
		if err != nil {
			return
		}
		printed := PrintString(g)
		g2, err := ParseString(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\nprinted:\n%s", err, printed)
		}
		if again := PrintString(g2); again != printed {
			t.Fatalf("print is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", printed, again)
		}
		in := make([]float64, g.NumInputs())
		for i := range in {
			in[i] = float64(i%7) - 3
		}
		o1, err1 := dfg.EvalOutputs(g, in)
		o2, err2 := dfg.EvalOutputs(g2, in)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("eval errors diverge across round trip: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if len(o1) != len(o2) {
			t.Fatalf("output counts diverge: %d vs %d", len(o1), len(o2))
		}
		for i := range o1 {
			if math.Float64bits(o1[i]) != math.Float64bits(o2[i]) {
				t.Fatalf("output %d diverges across round trip: %v vs %v", i, o1[i], o2[i])
			}
		}
	})
}
