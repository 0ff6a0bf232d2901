package explore

import (
	"context"
	"testing"

	"vliwbind/internal/bind"
)

// The benchmark space is the serialized 22-op chain over a 5-ALU budget
// in up to 4 clusters: every clustering reaches the same
// (L, moves, pressure, II), so the static port/cluster axes decide
// dominance and the anchor set provably prunes half the space — the
// configuration the retired BENCH_pr10.json gated the pruning + pool
// fan-out win on. Both sides use the full B-ITER binder per point.
func benchConfig(prune bool, par int) Config {
	return Config{
		Graph: chainGraph(22), Kernel: "chain22",
		ALUs: 5, MULs: 0, MaxClusters: 4,
		Bind: bind.BindContext, Par: par, Prune: prune,
	}
}

// BenchmarkExploreSequentialUnpruned is the baseline: every design
// point bound, one at a time.
func BenchmarkExploreSequentialUnpruned(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Explore(context.Background(), benchConfig(false, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplorePrunedPar is the engine as shipped: dominance pruning
// plus the point-level worker pool, with output bit-identical to the
// baseline's surviving points.
func BenchmarkExplorePrunedPar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Explore(context.Background(), benchConfig(true, 4)); err != nil {
			b.Fatal(err)
		}
	}
}
