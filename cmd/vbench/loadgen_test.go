package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoadgenCountsStalls serves requests one at a time, like a
// one-worker daemon, and stalls the first one. The requests due during
// the stall must carry it in their latency: an open loop times from the
// due time, not from the send, so a stall cannot shorten later
// latencies.
func TestLoadgenCountsStalls(t *testing.T) {
	const stall = 150 * time.Millisecond
	var worker sync.Mutex
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		worker.Lock()
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		worker.Unlock()
		io.WriteString(w, `{"outcome":"ok"}`)
	}))
	defer srv.Close()

	jobs := make([]job, 4)
	for i := range jobs {
		jobs[i] = job{due: time.Duration(i) * 20 * time.Millisecond, body: []byte("{}")}
	}
	replies, _ := loadgen(srv.Client(), srv.URL, jobs, 2, nil, 0)
	for i, r := range replies {
		if r.err != nil || r.status != http.StatusOK || r.resp.Outcome != "ok" {
			t.Fatalf("request %d: status %d, outcome %q: %v", i, r.status, r.resp.Outcome, r.err)
		}
	}
	for i := 1; i < len(jobs); i++ {
		// Request i was due at i·20ms; the stall ends at 150ms.
		if min := stall - jobs[i].due; replies[i].lat < min {
			t.Errorf("request %d: latency %v, want at least %v — the stall was not counted", i, replies[i].lat, min)
		}
	}
}
