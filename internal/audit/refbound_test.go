package audit_test

// The bound-graph check audit.Audit ran before the direct one: rebuild
// the canonical bound graph with problem.BuildBound and compare it with
// the result's, node for node. Kept verbatim (renamed) as a frozen
// reference for TestCheckBoundMatchesReference.

import (
	"fmt"

	"vliwbind/internal/bind"
	"vliwbind/internal/dfg"
	"vliwbind/internal/problem"
)

// refCheckBound is the parent audit's re-derivation and comparison.
func refCheckBound(res *bind.Result) error {
	g := res.Graph
	wantBound, wantBB, err := problem.BuildBound(g, res.Binding)
	if err != nil {
		return fmt.Errorf("audit: rederiving bound graph: %w", err)
	}
	if err := refSameGraph(res.Bound, wantBound); err != nil {
		return fmt.Errorf("audit: bound graph differs from canonical transfer insertion: %w", err)
	}
	if len(res.BoundBinding) != len(wantBB) {
		return fmt.Errorf("audit: bound binding has %d entries, canonical derivation has %d",
			len(res.BoundBinding), len(wantBB))
	}
	for i := range wantBB {
		if res.BoundBinding[i] != wantBB[i] {
			return fmt.Errorf("audit: bound binding differs at node %s: cluster %d, canonical derivation says %d",
				res.Bound.Node(i).Name(), res.BoundBinding[i], wantBB[i])
		}
	}
	return nil
}

// refSameGraph compares two graphs structurally — name, inputs, node
// sequence (name, op, immediate, operand identity), move metadata and
// output lists — and describes the first difference.
func refSameGraph(got, want *dfg.Graph) error {
	if got.Name() != want.Name() {
		return fmt.Errorf("graph name %q vs %q", got.Name(), want.Name())
	}
	if got.NumInputs() != want.NumInputs() {
		return fmt.Errorf("%d inputs vs %d", got.NumInputs(), want.NumInputs())
	}
	for i := 0; i < want.NumInputs(); i++ {
		if got.InputName(i) != want.InputName(i) {
			return fmt.Errorf("input %d named %q vs %q", i, got.InputName(i), want.InputName(i))
		}
	}
	if got.NumNodes() != want.NumNodes() {
		return fmt.Errorf("%d nodes vs %d", got.NumNodes(), want.NumNodes())
	}
	operandName := func(g *dfg.Graph, v dfg.Value) string {
		if v.IsInput() {
			return "in:" + g.InputName(v.Input())
		}
		return v.Node().Name()
	}
	for i := 0; i < want.NumNodes(); i++ {
		gn, wn := got.Node(i), want.Node(i)
		if gn.Name() != wn.Name() || gn.Op() != wn.Op() || gn.Imm() != wn.Imm() {
			return fmt.Errorf("node %d is %s/%s(imm %v) vs %s/%s(imm %v)",
				i, gn.Name(), gn.Op(), gn.Imm(), wn.Name(), wn.Op(), wn.Imm())
		}
		if len(gn.Operands()) != len(wn.Operands()) {
			return fmt.Errorf("node %s has %d operands vs %d", wn.Name(), len(gn.Operands()), len(wn.Operands()))
		}
		for j := range wn.Operands() {
			go_, wo := operandName(got, gn.Operands()[j]), operandName(want, wn.Operands()[j])
			if go_ != wo {
				return fmt.Errorf("node %s operand %d is %s vs %s", wn.Name(), j, go_, wo)
			}
		}
		if gn.IsMove() != wn.IsMove() {
			return fmt.Errorf("node %s move-ness differs", wn.Name())
		}
		if wn.IsMove() {
			gs, ws := gn.TransferFor(), wn.TransferFor()
			if gs == nil || ws == nil {
				return fmt.Errorf("move %s lacks producer metadata", wn.Name())
			}
			if gs.Name() != ws.Name() {
				return fmt.Errorf("move %s transfers %s vs %s", wn.Name(), gs.Name(), ws.Name())
			}
		}
	}
	if len(got.Outputs()) != len(want.Outputs()) {
		return fmt.Errorf("%d outputs vs %d", len(got.Outputs()), len(want.Outputs()))
	}
	for i, wn := range want.Outputs() {
		if got.Outputs()[i].Name() != wn.Name() {
			return fmt.Errorf("output %d is %s vs %s", i, got.Outputs()[i].Name(), wn.Name())
		}
	}
	return nil
}
