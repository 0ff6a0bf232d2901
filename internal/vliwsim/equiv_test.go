package vliwsim_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"vliwbind/internal/audit/audittest"
	"vliwbind/internal/bind"
	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/sched"
	"vliwbind/internal/vliwsim"
)

// probe is a deterministic input vector of exact dyadic rationals.
func probe(n, seed int) []float64 {
	in := make([]float64, n)
	for i := range in {
		in[i] = 1 + float64((i*7+seed)%13)*0.125
	}
	return in
}

// sameRun requires Execute and Outputs to agree with the reference on
// one schedule: outputs bit for bit, the trace event for event, and on
// failure the same error text.
func sameRun(t *testing.T, name string, s *sched.Schedule, in []float64) {
	t.Helper()
	wantOut, wantTr, werr := refExecute(s, in)
	gotOut, gotTr, gerr := vliwsim.Execute(s, in)
	onlyOut, oerr := vliwsim.Outputs(s, in)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Errorf("%s: Execute says %v, reference %v", name, gerr, werr)
		return
	}
	if (oerr == nil) != (gerr == nil) || (oerr != nil && oerr.Error() != gerr.Error()) {
		t.Errorf("%s: Outputs says %v, Execute %v", name, oerr, gerr)
		return
	}
	if werr != nil {
		return
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !slices.Equal(bits(gotOut), bits(wantOut)) || !slices.Equal(bits(onlyOut), bits(wantOut)) {
		t.Errorf("%s: outputs %v / %v, reference %v", name, gotOut, onlyOut, wantOut)
	}
	if gotTr.Cycles != wantTr.Cycles || len(gotTr.Events) != len(wantTr.Events) {
		t.Errorf("%s: trace of %d events over %d cycles, reference %d over %d",
			name, len(gotTr.Events), gotTr.Cycles, len(wantTr.Events), wantTr.Cycles)
		return
	}
	for i, e := range wantTr.Events {
		g := gotTr.Events[i]
		if g.Cycle != e.Cycle || g.Cluster != e.Cluster || g.Unit != e.Unit || g.Node != e.Node ||
			math.Float64bits(g.Value) != math.Float64bits(e.Value) {
			t.Errorf("%s: event %d is %+v, reference %+v", name, i, g, e)
			return
		}
	}
}

// TestExecuteMatchesReference holds the flat-array simulator to the
// map-based one it replaced on the audit corpus, and on corruptions of
// each schedule that stay inside the unit pools (the reference has no
// pool check): starts pulled a cycle early or pushed past L, units
// swapped, and clusters moved.
func TestExecuteMatchesReference(t *testing.T) {
	cases, err := audittest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		s := tc.Res.Schedule
		for seed := 0; seed < 2; seed++ {
			sameRun(t, tc.Name, s, probe(s.Graph.NumInputs(), seed))
		}
		in := probe(s.Graph.NumInputs(), 0)
		for id := 0; id < s.Graph.NumNodes(); id += 3 {
			n := s.Graph.Node(id)
			m := mutate(s)
			m.Start[id]--
			sameRun(t, tc.Name+" early "+n.Name(), m, in)
			m = mutate(s)
			m.Start[id] = s.L + 3
			sameRun(t, tc.Name+" late "+n.Name(), m, in)
			if !n.IsMove() && s.Datapath.NumFU(s.Cluster[id], n.FUType()) > 1 {
				m = mutate(s)
				m.Unit[id] = (m.Unit[id] + 1) % s.Datapath.NumFU(s.Cluster[id], n.FUType())
				sameRun(t, tc.Name+" unit "+n.Name(), m, in)
			}
			if c := (s.Cluster[id] + 1) % s.Datapath.NumClusters(); !n.IsMove() && s.Datapath.Supports(c, n.Op()) &&
				s.Unit[id] < s.Datapath.NumFU(c, n.FUType()) {
				m = mutate(s)
				m.Cluster[id] = c
				sameRun(t, tc.Name+" cluster "+n.Name(), m, in)
			}
		}
	}
}

// mutate copies the schedule's mutable arrays.
func mutate(s *sched.Schedule) *sched.Schedule {
	m := *s
	m.Start = slices.Clone(s.Start)
	m.Unit = slices.Clone(s.Unit)
	m.Cluster = slices.Clone(s.Cluster)
	return &m
}

// TestExecuteRejectsUnitPastPool: a functional-unit index beyond its
// cluster's pool would alias another unit's booking in the flat layout,
// so the simulator refuses it by name.
func TestExecuteRejectsUnitPastPool(t *testing.T) {
	b := dfg.NewBuilder("pool")
	x, y := b.Input("x"), b.Input("y")
	v := b.Add(x, y)
	b.Output(b.Mul(v, y))
	g := b.Graph()
	dp := machine.MustParse("[1,1]", machine.Config{NumBuses: 1})
	res, err := bind.Evaluate(g, dp, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	if _, _, err := vliwsim.Execute(s, []float64{1, 2}); err != nil {
		t.Fatalf("clean schedule rejected: %v", err)
	}
	s.Unit[v.Node().ID()] = 1 // the cluster has one ALU
	_, _, err = vliwsim.Execute(s, []float64{1, 2})
	if err == nil || !strings.Contains(err.Error(), "which does not exist") {
		t.Errorf("unit past its pool: got %v, want the simulator's pool check", err)
	}
}
