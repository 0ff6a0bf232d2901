package problem_test

import (
	"testing"

	"vliwbind/internal/bind"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/problem"
)

// The allocation benchmarks compare the two ways of scoring a candidate
// binding on the largest kernel (DCT-DIT-2, 96 ops):
//
//   - Materialized: the original path — build a bound graph with explicit
//     move nodes, then list-schedule it (bind.Evaluate). Every call
//     allocates a fresh graph, node set, and schedule.
//   - Virtual: problem.Evaluator — the same answer computed in reusable
//     scratch without materializing anything.
//
// Run with:
//
//	go test ./internal/problem -bench=BenchmarkEvaluate -benchmem
//
// and compare allocs/op; the virtual path must stay ≥5× leaner.

func benchSetup(b *testing.B) (*problem.Problem, *machine.Datapath, [][]int) {
	b.Helper()
	k, err := kernels.ByName("DCT-DIT-2")
	if err != nil {
		b.Fatal(err)
	}
	g := k.Build()
	dp := machine.MustParse("[3,1|2,2|1,3]", machine.Config{})
	p, err := problem.New(g, dp)
	if err != nil {
		b.Fatal(err)
	}
	// A rotation of move-heavy bindings, so the benchmark exercises the
	// move table rather than one memo-friendly input.
	bns := make([][]int, 4)
	for r := range bns {
		bn := make([]int, g.NumNodes())
		for i := range bn {
			bn[i] = (i + r) % dp.NumClusters()
		}
		bns[r] = bn
	}
	return p, dp, bns
}

func BenchmarkEvaluateMaterialized(b *testing.B) {
	p, dp, bns := benchSetup(b)
	g := p.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bind.Evaluate(g, dp, bns[i%len(bns)])
		if err != nil {
			b.Fatal(err)
		}
		_ = res.L()
	}
}

func BenchmarkEvaluateVirtual(b *testing.B) {
	p, _, bns := benchSetup(b)
	ev := p.NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := ev.Evaluate(bns[i%len(bns)])
		if err != nil {
			b.Fatal(err)
		}
		_ = e.L
	}
}

// BenchmarkEvaluateVirtualWithQuality adds the full Q_U vector append —
// the shape B-ITER actually uses per candidate.
func BenchmarkEvaluateVirtualWithQuality(b *testing.B) {
	p, _, bns := benchSetup(b)
	ev := p.NewEvaluator()
	qu := make([]int, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(bns[i%len(bns)]); err != nil {
			b.Fatal(err)
		}
		qu = ev.AppendQualityU(qu[:0])
	}
	_ = qu
}

// topoBenchSetup mirrors benchSetup on a routed interconnect, so the
// routed-pool bookkeeping (per-link channel pools, route lookups) can
// be priced against the shared-bus fast path above.
func topoBenchSetup(b *testing.B, spec string) (*problem.Evaluator, [][]int) {
	b.Helper()
	k, err := kernels.ByName("DCT-DIT-2")
	if err != nil {
		b.Fatal(err)
	}
	g := k.Build()
	dp, err := machine.ParseSpec(spec)
	if err != nil {
		b.Fatal(err)
	}
	p, err := problem.New(g, dp)
	if err != nil {
		b.Fatal(err)
	}
	bns := make([][]int, 4)
	for r := range bns {
		bn := make([]int, g.NumNodes())
		for i := range bn {
			bn[i] = (i + r) % dp.NumClusters()
		}
		bns[r] = bn
	}
	ev := p.NewEvaluator()
	return ev, bns
}

// BenchmarkEvaluateRing prices one virtual candidate evaluation on a
// three-cluster bidirectional ring: every inter-cluster transfer
// reserves a channel on the specific link its route rides instead of
// drawing from one shared pool.
func BenchmarkEvaluateRing(b *testing.B) {
	ev, bns := topoBenchSetup(b, "[3,1|2,2|1,3]@ring:2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := ev.Evaluate(bns[i%len(bns)])
		if err != nil {
			b.Fatal(err)
		}
		_ = e.L
	}
}

// BenchmarkEvaluateP2P prices the same evaluation on a full crossbar —
// one dedicated link per ordered cluster pair, the largest link table
// the abstraction produces for this machine size.
func BenchmarkEvaluateP2P(b *testing.B) {
	ev, bns := topoBenchSetup(b, "[3,1|2,2|1,3]@p2p:2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := ev.Evaluate(bns[i%len(bns)])
		if err != nil {
			b.Fatal(err)
		}
		_ = e.L
	}
}
