package server

// Served-latency trajectory once gated by the retired BENCH_pr9.json: a
// warm store hit through the full HTTP stack (decode, admission, store
// lookup, audit-on-read, encode) versus a cold bind through the same
// stack. That gate asserted the shared
// cross-request tier kept paying for itself behind the daemon's front
// door.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vliwbind"
)

func benchServer(b *testing.B, store *vliwbind.ResultStore) *Server {
	b.Helper()
	s, err := New(Config{Store: store})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func serveOnce(b *testing.B, s *Server, wantSource string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(arfJob))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if wantSource != "" && !strings.Contains(rec.Body.String(), `"source":"`+wantSource+`"`) {
		b.Fatalf("response source != %q: %s", wantSource, rec.Body)
	}
}

// BenchmarkServeHit measures a served request answered from the warm
// cross-request store (audited once, on read).
func BenchmarkServeHit(b *testing.B) {
	st := vliwbind.NewMemoryStore(0)
	s := benchServer(b, st)
	serveOnce(b, s, "search") // warm the store
	serveOnce(b, s, "store")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, s, "")
	}
}

// BenchmarkServeColdBind measures the same request against an empty
// store: a full B-INIT + B-ITER search per request. The server always
// binds through a store, so each request gets a fresh server.
func BenchmarkServeColdBind(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchServer(b, nil)
		b.StartTimer()
		serveOnce(b, s, "search")
	}
}
