// Package textio reads and writes dataflow graphs in a small line-based
// text format, so the CLI tools can exchange kernels with files:
//
//	# comment
//	dfg NAME
//	in x0 x1 x2
//	op v1 add x0 x1
//	op v2 muli 0.4904 v1
//	op t1 move v2
//	out v1 t1
//
// One "dfg" line, one optional "in" line (input names), one "op" line per
// operation in dependence order (operands name earlier ops or inputs;
// "muli" takes its immediate before the operand), and one optional "out"
// line listing live-out operations. Printing a parsed graph reproduces an
// equivalent file (round-trip stable).
package textio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vliwbind/internal/dfg"
)

// maxLineBytes caps the length of one input line.
const maxLineBytes = 1 << 20

// Parse reads one graph in the text format. Its line buffer starts at the
// scanner's 4 KiB and grows only when a line needs it, up to maxLineBytes;
// a longer line is an error.
func Parse(r io.Reader) (*dfg.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	var b *dfg.Builder
	vals := make(map[string]dfg.Value)
	var outs []string
	outSeen := make(map[string]bool)
	// Output names resolve only after the whole file is read, so the
	// deferred errors below need the line each name appeared on.
	outLine := make(map[string]int)
	lineNo := 0
	errf := func(format string, args ...any) error {
		return fmt.Errorf("textio: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "dfg":
			if b != nil {
				return nil, errf("duplicate dfg line")
			}
			if len(fields) != 2 {
				return nil, errf("dfg line needs exactly one name")
			}
			b = dfg.NewBuilder(fields[1])
		case "in":
			if b == nil {
				return nil, errf("in before dfg")
			}
			for _, name := range fields[1:] {
				if _, dup := vals[name]; dup {
					return nil, errf("duplicate name %q", name)
				}
				vals[name] = b.Input(name)
			}
		case "op":
			if b == nil {
				return nil, errf("op before dfg")
			}
			if len(fields) < 3 {
				return nil, errf("op line needs a name and a type")
			}
			name := fields[1]
			if _, dup := vals[name]; dup {
				return nil, errf("duplicate name %q", name)
			}
			op, err := dfg.ParseOpType(fields[2])
			if err != nil {
				return nil, errf("%v", err)
			}
			args := fields[3:]
			imm := 0.0
			if op.HasImm() {
				if len(args) == 0 {
					return nil, errf("%s needs an immediate", op)
				}
				imm, err = strconv.ParseFloat(args[0], 64)
				if err != nil {
					return nil, errf("bad immediate %q", args[0])
				}
				args = args[1:]
			}
			if len(args) != op.NumOperands() {
				return nil, errf("%s takes %d operands, got %d", op, op.NumOperands(), len(args))
			}
			operands := make([]dfg.Value, len(args))
			for i, a := range args {
				v, ok := vals[a]
				if !ok {
					return nil, errf("unknown operand %q", a)
				}
				operands[i] = v
			}
			var v dfg.Value
			if op == dfg.OpMove {
				v = b.NamedMove(name, operands[0])
			} else {
				v = b.Named(name, op, imm, operands...)
			}
			vals[name] = v
		case "out":
			if b == nil {
				return nil, errf("out before dfg")
			}
			// Reject repeats across all out lines: the builder would
			// silently register the node as an output once, breaking
			// the input/output correspondence the file claims.
			for _, name := range fields[1:] {
				if outSeen[name] {
					return nil, errf("duplicate output %q", name)
				}
				outSeen[name] = true
				outLine[name] = lineNo
				outs = append(outs, name)
			}
		default:
			return nil, errf("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("textio: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("textio: no dfg line found")
	}
	for _, name := range outs {
		v, ok := vals[name]
		if !ok {
			return nil, fmt.Errorf("textio: line %d: unknown output %q", outLine[name], name)
		}
		if !v.IsNode() {
			return nil, fmt.Errorf("textio: line %d: output %q is an input, not an op", outLine[name], name)
		}
		b.Output(v)
	}
	g := b.Graph()
	if err := dfg.Validate(g); err != nil {
		return nil, fmt.Errorf("textio: parsed graph invalid: %w", err)
	}
	return g, nil
}

// ParseString parses a graph from a string.
func ParseString(s string) (*dfg.Graph, error) { return Parse(strings.NewReader(s)) }

// Print writes the graph in the text format. Nodes are emitted in ID
// order, which the builder guarantees is a dependence order.
func Print(w io.Writer, g *dfg.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "dfg %s\n", g.Name())
	if g.NumInputs() > 0 {
		bw.WriteString("in")
		for i := 0; i < g.NumInputs(); i++ {
			fmt.Fprintf(bw, " %s", g.InputName(i))
		}
		bw.WriteByte('\n')
	}
	for _, n := range g.Nodes() {
		fmt.Fprintf(bw, "op %s %s", n.Name(), n.Op())
		if n.Op().HasImm() {
			fmt.Fprintf(bw, " %g", n.Imm())
		}
		for _, o := range n.Operands() {
			if o.IsInput() {
				fmt.Fprintf(bw, " %s", g.InputName(o.Input()))
			} else {
				fmt.Fprintf(bw, " %s", o.Node().Name())
			}
		}
		bw.WriteByte('\n')
	}
	if outs := g.Outputs(); len(outs) > 0 {
		bw.WriteString("out")
		for _, n := range outs {
			fmt.Fprintf(bw, " %s", n.Name())
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// PrintString renders the graph to a string.
func PrintString(g *dfg.Graph) string {
	var sb strings.Builder
	_ = Print(&sb, g)
	return sb.String()
}
