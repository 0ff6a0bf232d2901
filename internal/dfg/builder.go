package dfg

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
)

// Builder constructs a Graph incrementally. All node-creating methods panic
// on structural misuse (duplicate names, invalid operands); kernels and
// binders construct graphs programmatically, so such misuse is a bug, not
// an input error. Use Validate on graphs parsed from untrusted text.
type Builder struct {
	g        *Graph
	autoName int
	frozen   bool

	// Nodes and their operand, pred and succ lists are carved from room
	// that Grow reserves when a caller knows the graph's size; past it,
	// each is allocated on its own.
	nodes []Node
	vals  []Value
	preds []*Node
	succs []*Node
}

// carve returns the next n elements of *room, capped at n so that an
// append to them never writes into a neighbour's, or a slice of its own
// when the room is used up.
func carve[T any](room *[]T, n int) []T {
	if cap(*room)-len(*room) < n {
		return make([]T, n)
	}
	i := len(*room)
	*room = (*room)[:i+n]
	return (*room)[i : i+n : i+n]
}

// NewBuilder starts a new graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{g: &Graph{name: name, byName: make(map[string]*Node)}}
}

// Grow reserves room for n more nodes, so a caller that knows the
// graph's size up front builds it without re-growing the node list, the
// name index or the node storage.
func (b *Builder) Grow(n int) {
	b.checkFrozen()
	if n <= 0 {
		return
	}
	g := b.g
	g.nodes = slices.Grow(g.nodes, n)
	byName := make(map[string]*Node, len(g.byName)+n)
	maps.Copy(byName, g.byName)
	g.byName = byName
	// Operand and pred lists hold at most two entries per node; succ
	// lists start with room for two.
	b.nodes = make([]Node, 0, n)
	b.vals = make([]Value, 0, 2*n)
	b.preds = make([]*Node, 0, 2*n)
	b.succs = make([]*Node, 0, 2*n)
}

// Input declares a named external input and returns its Value.
func (b *Builder) Input(name string) Value {
	b.checkFrozen()
	idx := len(b.g.inputs)
	b.g.inputs = append(b.g.inputs, name)
	return InputValue(idx)
}

// Inputs declares n external inputs named prefix0..prefix(n-1).
func (b *Builder) Inputs(prefix string, n int) []Value {
	vs := make([]Value, n)
	for i := range vs {
		vs[i] = b.Input(prefix + strconv.Itoa(i))
	}
	return vs
}

// Add appends an addition node.
func (b *Builder) Add(x, y Value) Value { return b.node("", OpAdd, 0, x, y) }

// Sub appends a subtraction node computing x−y.
func (b *Builder) Sub(x, y Value) Value { return b.node("", OpSub, 0, x, y) }

// Neg appends a negation node.
func (b *Builder) Neg(x Value) Value { return b.node("", OpNeg, 0, x) }

// Mul appends a multiplication node.
func (b *Builder) Mul(x, y Value) Value { return b.node("", OpMul, 0, x, y) }

// MulImm appends a multiply-by-constant node.
func (b *Builder) MulImm(x Value, c float64) Value { return b.node("", OpMulImm, c, x) }

// Named appends a node with an explicit label. imm is ignored unless the
// operation type carries an immediate.
func (b *Builder) Named(name string, op OpType, imm float64, operands ...Value) Value {
	return b.node(name, op, imm, operands...)
}

// Move appends an inter-cluster transfer of x. xferFor records the original
// producer (nil when x is an external input).
func (b *Builder) Move(x Value) Value { return b.NamedMove("", x) }

// NamedMove is Move with an explicit label (auto-named when empty).
func (b *Builder) NamedMove(name string, x Value) Value {
	v := b.node(name, OpMove, 0, x)
	v.node.xferFor = x.node
	return v
}

// HasNode reports whether a node with the given name already exists.
func (b *Builder) HasNode(name string) bool { return b.g.byName[name] != nil }

// Output marks a value as live-out of the block. External inputs cannot be
// outputs (a block that copies an input through performs no operation on
// it, so it contributes nothing to binding).
func (b *Builder) Output(v Value) {
	b.checkFrozen()
	if !v.IsNode() {
		panic("dfg: cannot mark an external input as output")
	}
	n := v.Node()
	if n.output {
		return
	}
	n.output = true
	b.g.outputs = append(b.g.outputs, n)
}

// Graph finalizes and returns the constructed graph. The builder must not
// be used afterwards.
func (b *Builder) Graph() *Graph {
	b.checkFrozen()
	b.frozen = true
	return b.g
}

func (b *Builder) checkFrozen() {
	if b.frozen {
		panic("dfg: builder used after Graph()")
	}
}

func (b *Builder) node(name string, op OpType, imm float64, operands ...Value) Value {
	b.checkFrozen()
	if len(operands) != op.NumOperands() {
		panic(fmt.Sprintf("dfg: %s takes %d operands, got %d", op, op.NumOperands(), len(operands)))
	}
	if name == "" {
		name = "n" + strconv.Itoa(b.autoName)
		b.autoName++
		for b.g.byName[name] != nil {
			name = "n" + strconv.Itoa(b.autoName)
			b.autoName++
		}
	}
	if b.g.byName[name] != nil {
		panic(fmt.Sprintf("dfg: duplicate node name %q", name))
	}
	for _, v := range operands {
		if v.IsInput() {
			if v.input >= len(b.g.inputs) {
				panic(fmt.Sprintf("dfg: operand references undeclared input %d", v.input))
			}
		} else if v.node == nil {
			panic("dfg: zero Value used as operand")
		}
	}
	if !op.HasImm() {
		imm = 0
	}
	n := &carve(&b.nodes, 1)[0]
	*n = Node{
		id:   len(b.g.nodes),
		name: name,
		op:   op,
		imm:  imm,
	}
	if len(operands) > 0 {
		n.operands = carve(&b.vals, len(operands))
		copy(n.operands, operands)
	}
	// Distinct-predecessor list in first-use order; duplicate operands
	// (e.g. x+x) contribute one predecessor. Operands number at most
	// two, so a scan of the list so far finds repeats.
	var distinct [2]*Node
	np := 0
	for _, v := range operands {
		if v.IsNode() && !slices.Contains(distinct[:np], v.node) {
			distinct[np] = v.node
			np++
		}
	}
	if np > 0 {
		n.preds = carve(&b.preds, np)
		copy(n.preds, distinct[:np])
	}
	for _, p := range n.preds {
		if cap(p.succs) == 0 {
			p.succs = carve(&b.succs, 2)[:0]
		}
		p.succs = append(p.succs, n)
	}
	if op == OpMove {
		b.g.numMoves++
	}
	b.g.nodes = append(b.g.nodes, n)
	b.g.byName[name] = n
	return ValueOf(n)
}
