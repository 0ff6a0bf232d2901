// Package schedtest holds the frozen reference list schedulers the
// scheduling core is held to, and the differential check the test
// suites of sched, problem, bind and expt share. Only test code imports
// it, so production builds link one list-scheduling design: the
// rank-once ReadySet behind sched.List and problem.Evaluator.
//
// ListSortRef is the sort-based scheduler the ReadySet replaced;
// ListScalarRef is the pre-interconnect scalar-bus-pool scheduler. Both
// are frozen. Living outside package sched, they return hand-built
// schedules, whose unexported caches (recorded finishes, precomputed
// profile) stay unset, so compare them with Diff rather than
// reflect.DeepEqual.
package schedtest

import (
	"fmt"
	"reflect"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/problem"
	"vliwbind/internal/sched"
)

// Diff reports the first field on which schedule got differs from the
// reference schedule want, or "" when they agree on all of them: graph,
// datapath, starts, clusters, units, hop channels, L, every node's
// finish cycle and the completion profile. It is reflect.DeepEqual for
// a reference whose caches are unset: a cached finish or profile that
// disagrees with the starts is a difference.
func Diff(got, want *sched.Schedule) string {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Graph", got.Graph, want.Graph},
		{"Datapath", got.Datapath, want.Datapath},
		{"L", got.L, want.L},
		{"Start", got.Start, want.Start},
		{"Cluster", got.Cluster, want.Cluster},
		{"Unit", got.Unit, want.Unit},
		{"HopUnits", got.HopUnits, want.HopUnits},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("%s = %v, reference %v", f.name, f.got, f.want)
		}
	}
	for _, n := range got.Graph.Nodes() {
		if g, w := got.Finish(n), want.Finish(n); g != w {
			return fmt.Sprintf("node %s finishes at %d, reference %d", n.Name(), g, w)
		}
	}
	if g, w := got.CompletionProfile(0), want.CompletionProfile(0); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("completion profile %v, reference %v", g, w)
	}
	return ""
}

// CheckEvaluator evaluates binding bn three ways — through ev, through
// sched.List on the materialized bound graph, and through ListSortRef on
// the same graph — and returns an error unless all three agree: List on
// every field Diff compares, the Evaluator on (L, M), the bound-node
// count, the Q_U vector and every bound node's start cycle. A binding
// is also agreement when the Evaluator and the oracle both reject it.
func CheckEvaluator(ev *problem.Evaluator, bn []int) error {
	p := ev.Problem()
	got, err := ev.Evaluate(bn)

	bg, bb, berr := problem.BuildBound(p.Graph(), bn)
	var want *sched.Schedule
	if berr == nil {
		want, berr = ListSortRef(bg, p.Datapath(), bb)
	}
	if (err == nil) != (berr == nil) {
		return fmt.Errorf("binding %v: evaluator err=%v, oracle err=%v", bn, err, berr)
	}
	if err != nil {
		return nil
	}

	s, err := sched.List(bg, p.Datapath(), bb)
	if err != nil {
		return fmt.Errorf("binding %v: List failed where the oracle scheduled: %v", bn, err)
	}
	if d := Diff(s, want); d != "" {
		return fmt.Errorf("binding %v: List %s", bn, d)
	}

	if got.L != want.L || got.M != bg.NumMoves() {
		return fmt.Errorf("binding %v: evaluator (L=%d, M=%d), oracle (L=%d, M=%d)",
			bn, got.L, got.M, want.L, bg.NumMoves())
	}
	if ev.NumBoundNodes() != bg.NumNodes() {
		return fmt.Errorf("binding %v: %d virtual bound nodes, %d materialized", bn, ev.NumBoundNodes(), bg.NumNodes())
	}
	if gotQU, wantQU := ev.AppendQualityU(nil), append([]int{want.L}, want.CompletionProfile(0)...); !reflect.DeepEqual(gotQU, wantQU) {
		return fmt.Errorf("binding %v: evaluator Q_U %v, oracle %v", bn, gotQU, wantQU)
	}
	if starts := ev.AppendStarts(nil); !reflect.DeepEqual(starts, want.Start) {
		return fmt.Errorf("binding %v: evaluator starts %v, oracle %v", bn, starts, want.Start)
	}
	return nil
}

// freeUnit returns the index of a unit in pool free at the given cycle,
// preferring the one free longest (smallest next-free time), or -1.
func freeUnit(pool []int, cycle int) int {
	best, bestAt := -1, cycle+1
	for i, at := range pool {
		if at <= cycle && at < bestAt {
			best, bestAt = i, at
		}
	}
	return best
}

// moveRoute resolves the hop list a move traverses under binding: the
// datapath's precomputed route from its producer's cluster to its
// destination cluster. A degenerate same-cluster move keeps the legacy
// scalar-bus behavior — one hop on link 0 — and a cross-cluster move
// with no route is an error.
func moveRoute(dp *machine.Datapath, n *dfg.Node, binding []int) ([]int, error) {
	src, dst := binding[n.ID()], binding[n.ID()]
	if p := n.TransferFor(); p != nil {
		src = binding[p.ID()]
	} else if preds := n.Preds(); len(preds) > 0 {
		src = binding[preds[0].ID()]
	}
	if src == dst {
		return []int{0}, nil
	}
	r := dp.Route(src, dst)
	if r == nil {
		return nil, fmt.Errorf("sched: move %s needs a route from cluster %d to %d but the %s interconnect has none",
			n.Name(), src, dst, dp.Topology())
	}
	return r, nil
}
