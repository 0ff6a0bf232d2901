package audit_test

import (
	"sync"
	"testing"

	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/expt"
	"vliwbind/internal/kernels"
)

// workingSet binds the Table 1 rows that the daemon's serve-mix traffic
// repeats (every row but DCT-DIT-2's) once per test binary, at
// Parallelism 1: the results a served store hit certifies.
var workingSet = sync.OnceValues(func() ([]*bind.Result, error) {
	var out []*bind.Result
	for _, r := range expt.Table1() {
		if r.Kernel == "DCT-DIT-2" {
			continue
		}
		k, err := kernels.ByName(r.Kernel)
		if err != nil {
			return nil, err
		}
		dp, err := r.Datapath()
		if err != nil {
			return nil, err
		}
		res, err := bind.Bind(k.Build(), dp, bind.Options{Parallelism: 1})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
})

// BenchmarkAudit certifies the working set round-robin, one result per
// op, so ns/op and allocs/op read per audit.
//
//	go test ./internal/audit -run '^$' -bench BenchmarkAudit -benchmem
func BenchmarkAudit(b *testing.B) {
	rs, err := workingSet()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := audit.Audit(rs[i%len(rs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/audit")
}
