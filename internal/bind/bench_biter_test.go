package bind

import (
	"testing"

	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
)

// BenchmarkBITER times the complete two-phase binding (B-INIT, then
// B-ITER) of the largest kernel, DCT-DIT-2 (96 ops), on
// [3,1|2,2|1,3] — a run whose time is almost all candidate evaluation.
// Parallelism is pinned to 1 so the number measures evaluation work,
// not pool scheduling.
func BenchmarkBITER(b *testing.B) {
	k, err := kernels.ByName("DCT-DIT-2")
	if err != nil {
		b.Fatal(err)
	}
	g := k.Build()
	dp := machine.MustParse("[3,1|2,2|1,3]", machine.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Bind(g, dp, Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.L()
	}
}
