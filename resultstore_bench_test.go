package vliwbind

import "testing"

// The pr8 trajectory pair: a full B-ITER search versus the same request
// answered from a warm result store. The hit path still pays for
// canonicalization, key derivation, re-evaluation of the transplanted
// binding, and a full audit. The retired BENCH_pr8.json gate asserted
// that all of that together was still far cheaper than re-searching.

func benchSetup(b *testing.B) (*Graph, *Datapath) {
	b.Helper()
	g := KernelMust("EWF")
	dp, err := ParseDatapath("[2,1|1,1]", DatapathConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return g, dp
}

func BenchmarkStoreColdBind(b *testing.B) {
	g, dp := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bind(g, dp, Options{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreHit(b *testing.B) {
	g, dp := benchSetup(b)
	st := NewMemoryStore(0)
	var stats CacheStats
	opts := Options{Parallelism: 1, Store: st, Stats: &stats}
	if _, err := Bind(g, dp, opts); err != nil {
		b.Fatal(err) // warm the store
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bind(g, dp, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if stats.StoreHits() != int64(b.N) {
		b.Fatalf("hit benchmark missed: %d hits over %d iterations", stats.StoreHits(), b.N)
	}
}
