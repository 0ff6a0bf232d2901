package server

// The chaos soak: the acceptance test for the daemon's robustness
// story. Thousands of concurrent requests — a mix of full binds,
// explicit-budget degraded jobs, unmeetable deadlines, malformed
// inputs, and mid-flight client cancellations — run against one server
// with deterministic panics and delays injected into the engine's
// seams. The assertions are the ISSUE's acceptance criteria verbatim:
// zero goroutine leaks, zero uncertified 200s, every response exactly
// one of {ok, degraded, rejected, failed}, and a monotone drain that
// finishes within the drain deadline with the journal flushed and
// compacted.

import (
	"bytes"
	"context"
	"encoding/json"

	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vliwbind"
	"vliwbind/internal/bind"
	"vliwbind/internal/faultinject"
	"vliwbind/internal/leakcheck"
)

// soakJob returns the i-th request body and, when positive, a client
// timeout that cancels the request mid-flight. The mix is a function
// of the index only, so every run replays the same traffic.
func soakJob(i int) (body string, clientTimeout time.Duration) {
	switch i % 10 {
	case 3:
		// Malformed: unknown kernel → 400 failed.
		return `{"kernel":"NoSuchKernel","dp":"[2,1|2,1]"}`, 0
	case 5:
		// Explicit budget far below DCT-DIT-2's improvement phase on six
		// clusters → 200 degraded (audited anytime result).
		return `{"kernel":"DCT-DIT-2","dp":"[1,1|1,1|1,1|1,1|1,1|1,1]","deadline_ms":20000,"budget_ms":60}`, 0
	case 7:
		// Deadline below the minimum certifiable budget → 429 rejected.
		return `{"kernel":"EWF","dp":"[2,1|2,1]","deadline_ms":1}`, 0
	case 9:
		// Client gives up mid-flight: whatever the server answers must
		// still be classified, audited if 200, and leak-free.
		return `{"kernel":"ARF","dp":"[2,1|2,1]","deadline_ms":10000}`, 2 * time.Millisecond
	case 1:
		return `{"kernel":"EWF","dp":"[2,1|2,1]","deadline_ms":10000}`, 0
	case 2:
		return `{"kernel":"ARF","dp":"[2,1|2,1]","topology":"ring","deadline_ms":10000}`, 0
	default:
		return `{"kernel":"ARF","dp":"[2,1|2,1]","deadline_ms":10000}`, 0
	}
}

// chaosInjector builds a deterministic fault schedule spread across the
// whole soak: panics and delays at the engine's hot seams, with hit
// counts drawn far enough out that faults keep landing throughout the
// run rather than only in the first request.
func chaosInjector() *faultinject.Injector {
	rng := rand.New(rand.NewSource(7))
	points := []string{bind.HookCompute, bind.HookEvaluate, bind.HookPoolTask, bind.HookIterRound, bind.HookCacheInsert}
	var faults []faultinject.Fault
	for i := 0; i < 300; i++ {
		f := faultinject.Fault{
			Point: points[rng.Intn(len(points))],
			Hit:   1 + rng.Int63n(200000),
			Kind:  faultinject.Kind(rng.Intn(2)), // Panic or Delay
		}
		if f.Kind == faultinject.Delay {
			f.Delay = time.Duration(rng.Intn(2000)) * time.Microsecond
		}
		faults = append(faults, f)
	}
	return faultinject.New(faults...)
}

func TestChaosSoak(t *testing.T) {
	leakcheck.Check(t)
	total := 1000
	if testing.Short() {
		total = 200
	}
	const clients = 8

	dir := t.TempDir()
	st, err := vliwbind.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	inj := chaosInjector()
	metrics := vliwbind.NewMetrics()
	s, err := New(Config{
		Workers:       4,
		QueueDepth:    16,
		Store:         st,
		Metrics:       metrics,
		DrainDeadline: 10 * time.Second,
		BindOptions:   vliwbind.Options{Parallelism: 2, Hook: inj.At},
	})
	if err != nil {
		t.Fatal(err)
	}

	var clientCounts [4]atomic.Int64 // ok, degraded, rejected, failed as seen by clients
	index := map[string]int{OutcomeOK: 0, OutcomeDegraded: 1, OutcomeRejected: 2, OutcomeFailed: 3}
	var failures atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < total; i += clients {
				body, clientTimeout := soakJob(i)
				ctx := context.Background()
				cancel := func() {}
				if clientTimeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, clientTimeout)
				}
				req := httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(body)).WithContext(ctx)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				cancel()

				var resp bindResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("request %d: response is not JSON: %v\n%s", i, err, rec.Body)
					failures.Add(1)
					continue
				}
				slot, known := index[resp.Outcome]
				if !known {
					t.Errorf("request %d: outcome %q is not one of ok/degraded/rejected/failed", i, resp.Outcome)
					failures.Add(1)
					continue
				}
				clientCounts[slot].Add(1)
				if rec.Code == http.StatusOK {
					// The uncertified-response check: every 200 carries the
					// store seam's audit certificate and a solution.
					if !resp.Audited {
						t.Errorf("request %d: 200 without audit certificate: %s", i, rec.Body)
						failures.Add(1)
					}
					if resp.L <= 0 || len(resp.Binding) == 0 {
						t.Errorf("request %d: 200 without a solution: %s", i, rec.Body)
						failures.Add(1)
					}
					if resp.Outcome != OutcomeOK && resp.Outcome != OutcomeDegraded {
						t.Errorf("request %d: 200 classified %q", i, resp.Outcome)
					}
				} else if resp.Outcome == OutcomeOK || resp.Outcome == OutcomeDegraded {
					t.Errorf("request %d: status %d classified %q", i, rec.Code, resp.Outcome)
				}
			}
		}(c)
	}
	wg.Wait()

	// Reconciliation: the server classified every request exactly once,
	// and exactly as the clients saw it.
	server := s.Counts()
	var serverTotal int64
	for _, v := range server {
		serverTotal += v
	}
	if serverTotal != int64(total) {
		t.Errorf("server classified %d responses, want %d: %v", serverTotal, total, server)
	}
	for outcome, slot := range index {
		if got, want := server[outcome], clientCounts[slot].Load(); got != want {
			t.Errorf("outcome %s: server counted %d, clients saw %d", outcome, got, want)
		}
	}
	// The deterministic mix guarantees a floor for each class.
	if server[OutcomeDegraded] == 0 {
		t.Error("soak produced no degraded responses; the budget path never ran")
	}
	if server[OutcomeRejected] < int64(total/10) {
		t.Errorf("soak produced %d rejections, want >= %d (every index%%10==7 job)", server[OutcomeRejected], total/10)
	}
	if server[OutcomeFailed] < int64(total/10) {
		t.Errorf("soak produced %d failures, want >= %d (every index%%10==3 job)", server[OutcomeFailed], total/10)
	}
	if server[OutcomeOK] == 0 {
		t.Error("soak produced no ok responses")
	}
	if inj.Fired() == 0 {
		t.Error("chaos injector never fired; the soak ran without faults")
	}
	t.Logf("soak: %d requests → %v, %d faults injected, ewma %v", total, server, inj.Fired(), s.ewma())

	// Monotone drain: completes within the deadline, closes admission
	// permanently, flushes and compacts the journal.
	start := time.Now()
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("drain took %v, past the drain deadline", waited)
	}
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(`{"kernel":"ARF","dp":"[2,1|2,1]"}`))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("post-drain request %d: status %d, want 503 (drain must be monotone)", i, rec.Code)
		}
	}

	// Journal flushed + compacted: exactly one record per live entry,
	// and a fresh replay agrees with the in-memory store.
	raw, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatalf("journal missing after drain: %v", err)
	}
	if lines := bytes.Count(raw, []byte("\n")); lines != st.Len() {
		t.Errorf("compacted journal has %d records for %d live entries", lines, st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := vliwbind.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if stats := re.OpenStats(); stats.Skipped != 0 || stats.Tombstoned != 0 {
		t.Errorf("compacted journal replayed with %+v, want all-clean records", stats)
	}
	if failures.Load() > 0 {
		t.Fatalf("%d soak invariant violations (see errors above)", failures.Load())
	}
}
