package store

import (
	"testing"

	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
)

// BenchmarkCanonicalize prices the request-hashing side of a store
// lookup on the largest checked-in kernel: WL refinement, canonical
// ordering, serialization, and the SHA-256.
func BenchmarkCanonicalize(b *testing.B) {
	g := kernels.DCTDIT2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Canonicalize(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreResultKey prices key derivation given a canonical form.
func BenchmarkStoreResultKey(b *testing.B) {
	g := kernels.DCTDIT2()
	c, err := Canonicalize(g)
	if err != nil {
		b.Fatal(err)
	}
	dp, err := machine.ParseSpec("[2,1|2,1]")
	if err != nil {
		b.Fatal(err)
	}
	extra := []byte("bindopts/v1 benchmark")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResultKey(KindIter, c, dp, extra)
	}
}

// BenchmarkStoreLookup is the steady-state hit path of the store proper:
// a Get on a resident key, including the LRU move-to-front. This was the
// zero-allocation gate of the retired BENCH_pr8.json — the map probe and
// the intrusive list relink allocate nothing.
func BenchmarkStoreLookup(b *testing.B) {
	s := NewMemory(0)
	k := testKey("steady")
	s.Put(Entry{Key: k, Kind: KindIter, Binding: make([]int, 48), L: 17, M: 6})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Get(k) == nil {
			b.Fatal("entry vanished")
		}
	}
}
