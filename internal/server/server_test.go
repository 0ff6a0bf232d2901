package server

// Unit tests for the robustness machinery: admission control decisions,
// the degradation ladder, fault containment, drain, and the endpoint
// contract. The chaos soak in soak_test.go exercises the same machinery
// under concurrent adversarial load; these tests pin each behavior in
// isolation where a failure names the broken seam.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vliwbind"
	"vliwbind/internal/bind"
	"vliwbind/internal/faultinject"
	"vliwbind/internal/leakcheck"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func postBind(t *testing.T, s *Server, body string) (*httptest.ResponseRecorder, bindResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var resp bindResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response %q is not JSON: %v", rec.Body.String(), err)
	}
	return rec, resp
}

const arfJob = `{"kernel":"ARF","dp":"[2,1|2,1]"}`

func TestBindOKServesAuditedResult(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{})
	rec, resp := postBind(t, s, arfJob)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if resp.Outcome != OutcomeOK {
		t.Fatalf("outcome = %q, want ok (body %s)", resp.Outcome, rec.Body)
	}
	if !resp.Audited {
		t.Error("200 response without an audit certificate")
	}
	if resp.Source != "search" {
		t.Errorf("source = %q, want search (no store configured)", resp.Source)
	}
	if resp.L <= 0 || len(resp.Binding) == 0 {
		t.Errorf("implausible solution: L=%d binding=%v", resp.L, resp.Binding)
	}
	if c := s.Counts(); c[OutcomeOK] != 1 || c[OutcomeDegraded]+c[OutcomeRejected]+c[OutcomeFailed] != 0 {
		t.Errorf("counts = %v, want exactly one ok", c)
	}
}

func TestBindServesStoreHitAudited(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st, err := vliwbind.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := newTestServer(t, Config{Store: st})
	if _, resp := postBind(t, s, arfJob); resp.Source != "search" {
		t.Fatalf("cold request source = %q, want search", resp.Source)
	}
	_, resp := postBind(t, s, arfJob)
	if resp.Source != "store" {
		t.Fatalf("warm request source = %q, want store", resp.Source)
	}
	if resp.Outcome != OutcomeOK || !resp.Audited {
		t.Fatalf("store hit served outcome=%q audited=%v; hits must stay certified", resp.Outcome, resp.Audited)
	}
}

// TestBindCertifiesEachAnswerOnce: every 200 comes through the facade's
// store seam — a server configured without a store serves through an
// in-memory one — and the seam certifies each answer exactly once. A
// fresh search, the same job again (a store hit) and a budget-degraded
// job each add one "audit" phase to the metrics; the handler adds none
// of its own.
func TestBindCertifiesEachAnswerOnce(t *testing.T) {
	leakcheck.Check(t)
	metrics := vliwbind.NewMetrics()
	s := newTestServer(t, Config{Metrics: metrics})
	audits := func() int64 { return metrics.Snapshot().Phases["audit"].Count }
	for _, c := range []struct{ what, body, outcome, source string }{
		{"fresh", arfJob, OutcomeOK, "search"},
		{"hit", arfJob, OutcomeOK, "store"},
		{"degraded", `{"kernel":"DCT-DIT-2","dp":"[1,1|1,1|1,1|1,1|1,1|1,1]","deadline_ms":10000,"budget_ms":60}`, OutcomeDegraded, "search"},
	} {
		before := audits()
		rec, resp := postBind(t, s, c.body)
		if rec.Code != http.StatusOK || resp.Outcome != c.outcome || resp.Source != c.source || !resp.Audited {
			t.Fatalf("%s: status=%d outcome=%q source=%q audited=%v, want 200 %s from %s, audited (body %s)",
				c.what, rec.Code, resp.Outcome, resp.Source, resp.Audited, c.outcome, c.source, rec.Body)
		}
		if n := audits() - before; n != 1 {
			t.Errorf("%s: %d audits, want exactly 1", c.what, n)
		}
	}
}

func TestAdmissionRejectsSubMinimumDeadline(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{})
	rec, resp := postBind(t, s, `{"kernel":"ARF","dp":"[2,1|2,1]","deadline_ms":1}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if resp.Outcome != OutcomeRejected {
		t.Fatalf("outcome = %q, want rejected", resp.Outcome)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("rejection without a Retry-After header")
	}
	if !strings.Contains(resp.Reason, "minimum certifiable budget") {
		t.Errorf("reason %q does not explain the minimum-budget rejection", resp.Reason)
	}
}

func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 2})
	s.queued.Add(s.capacity()) // simulate a full queue
	defer s.queued.Add(-s.capacity())
	rec, resp := postBind(t, s, arfJob)
	if rec.Code != http.StatusTooManyRequests || resp.Outcome != OutcomeRejected {
		t.Fatalf("status=%d outcome=%q, want 429 rejected", rec.Code, resp.Outcome)
	}
	if resp.Reason != "queue full" {
		t.Errorf("reason = %q, want queue full", resp.Reason)
	}
}

func TestAdmissionRejectsUnmeetableDeadline(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	// Three jobs ahead of us, each estimated at 1s, on one worker: a
	// 50ms deadline cannot be met and must be shed immediately.
	s.ewmaNs.Store(int64(time.Second))
	s.queued.Add(3)
	defer s.queued.Add(-3)
	rec, resp := postBind(t, s, `{"kernel":"ARF","dp":"[2,1|2,1]","deadline_ms":50}`)
	if rec.Code != http.StatusTooManyRequests || resp.Outcome != OutcomeRejected {
		t.Fatalf("status=%d outcome=%q, want 429 rejected (body %s)", rec.Code, resp.Outcome, rec.Body)
	}
	if resp.RetryAfterMS <= 0 {
		t.Errorf("retry_after_ms = %d, want a positive queue-drain hint", resp.RetryAfterMS)
	}
}

func TestClientBudgetDegradesButStaysAudited(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{})
	// DCT-DIT-2's improvement phase on six single-ALU clusters runs far
	// past 60ms; its B-INIT floor completes well within it. The budget
	// must surface as a degraded-but-audited 200, not an error.
	rec, resp := postBind(t, s, `{"kernel":"DCT-DIT-2","dp":"[1,1|1,1|1,1|1,1|1,1|1,1]","deadline_ms":10000,"budget_ms":60}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if resp.Outcome != OutcomeDegraded {
		t.Fatalf("outcome = %q, want degraded (body %s)", resp.Outcome, rec.Body)
	}
	if !resp.Audited {
		t.Error("degraded response served without an audit certificate")
	}
	if !strings.Contains(resp.Reason, "client budget") {
		t.Errorf("reason %q does not name the client budget", resp.Reason)
	}
	if resp.L <= 0 || len(resp.Binding) == 0 {
		t.Errorf("degraded response carries no solution: L=%d binding=%v", resp.L, resp.Binding)
	}
}

func TestPanicContainedAndRetriedServerSide(t *testing.T) {
	leakcheck.Check(t)
	// Engine-level retries off (-1): the injected panic escapes the
	// pool as a *bind.PanicError, and only the server-side re-run
	// heals it.
	inj := faultinject.New(faultinject.Fault{Point: bind.HookCompute, Hit: 1, Kind: faultinject.Panic})
	s := newTestServer(t, Config{
		BindOptions: vliwbind.Options{TaskRetries: -1, Parallelism: 2, Hook: inj.At},
	})
	rec, resp := postBind(t, s, arfJob)
	if rec.Code != http.StatusOK || resp.Outcome != OutcomeOK {
		t.Fatalf("status=%d outcome=%q, want the server-side retry to heal the panic (body %s)", rec.Code, resp.Outcome, rec.Body)
	}
	if inj.Fired() != 1 {
		t.Fatalf("injector fired %d faults, want 1", inj.Fired())
	}
}

func TestPanicFailsOnlyThatRequest(t *testing.T) {
	leakcheck.Check(t)
	// Every compute of the first request panics; with server retries
	// disabled the request must fail 5xx — and the next request on the
	// same server must succeed untouched.
	inj := faultinject.New(
		faultinject.Fault{Point: bind.HookCompute, Hit: 1, Kind: faultinject.Panic},
		faultinject.Fault{Point: bind.HookCompute, Hit: 2, Kind: faultinject.Panic},
	)
	s := newTestServer(t, Config{
		RequestRetries: -1,
		BindOptions:    vliwbind.Options{TaskRetries: -1, Parallelism: 2, Hook: inj.At},
	})
	rec, resp := postBind(t, s, arfJob)
	if rec.Code != http.StatusInternalServerError || resp.Outcome != OutcomeFailed {
		t.Fatalf("status=%d outcome=%q, want 500 failed (body %s)", rec.Code, resp.Outcome, rec.Body)
	}
	if !strings.Contains(resp.Error, "panic") {
		t.Errorf("error %q does not surface the contained panic", resp.Error)
	}
	rec, resp = postBind(t, s, arfJob)
	if rec.Code != http.StatusOK || resp.Outcome != OutcomeOK {
		t.Fatalf("request after a contained panic: status=%d outcome=%q, want 200 ok", rec.Code, resp.Outcome)
	}
	if c := s.Counts(); c[OutcomeFailed] != 1 || c[OutcomeOK] != 1 {
		t.Errorf("counts = %v, want one failed and one ok", c)
	}
}

func TestBadRequestsFailWithDescriptiveErrors(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{})
	cases := []struct {
		name, body, want string
	}{
		{"not json", `{`, "decode request"},
		{"unknown field", `{"kernel":"ARF","dp":"[2,1]","bogus":1}`, "bogus"},
		{"no graph", `{"dp":"[2,1|2,1]"}`, "neither kernel nor dfg"},
		{"both graphs", `{"kernel":"ARF","dfg":"x","dp":"[2,1|2,1]"}`, "exactly one"},
		{"unknown kernel", `{"kernel":"NOPE","dp":"[2,1|2,1]"}`, "NOPE"},
		{"bad dfg", `{"dfg":"not a graph","dp":"[2,1|2,1]"}`, "parse dfg"},
		{"no dp", `{"kernel":"ARF"}`, "missing the datapath"},
		{"bad dp", `{"kernel":"ARF","dp":"[[["}`, "parse datapath"},
		{"bad algo", `{"kernel":"ARF","dp":"[2,1|2,1]","algo":"magic"}`, "magic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec, resp := postBind(t, s, c.body)
			if rec.Code != http.StatusBadRequest || resp.Outcome != OutcomeFailed {
				t.Fatalf("status=%d outcome=%q, want 400 failed", rec.Code, resp.Outcome)
			}
			if !strings.Contains(resp.Error, c.want) {
				t.Errorf("error %q does not mention %q", resp.Error, c.want)
			}
		})
	}
	req := httptest.NewRequest(http.MethodGet, "/bind", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /bind status = %d, want 405", rec.Code)
	}
}

func TestOversizeBodyIs413(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{})
	prefix, suffix := `{"dp":"[2,1|2,1]","dfg":"`, `"}`
	body := prefix + strings.Repeat("x", maxRequestBody+1-len(prefix)-len(suffix)) + suffix
	if len(body) != maxRequestBody+1 {
		t.Fatalf("test body is %d bytes, want %d", len(body), maxRequestBody+1)
	}
	rec, resp := postBind(t, s, body)
	if rec.Code != http.StatusRequestEntityTooLarge || resp.Outcome != OutcomeFailed {
		t.Fatalf("status=%d outcome=%q error=%q, want 413 failed", rec.Code, resp.Outcome, resp.Error)
	}
	rec, resp = postBind(t, s, arfJob)
	if rec.Code != http.StatusOK || resp.Outcome != OutcomeOK {
		t.Fatalf("normal job after an oversize one: status=%d outcome=%q, want 200 ok", rec.Code, resp.Outcome)
	}
	if c := s.Counts(); c[OutcomeFailed] != 1 || c[OutcomeOK] != 1 {
		t.Errorf("counts = %v, want one failed and one ok", c)
	}
}

func TestDrainDegradesInFlightAndCompactsStore(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st, err := vliwbind.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Slow every B-ITER round so the job genuinely outlives the drain
	// grace period and must be force-degraded.
	inj := faultinject.New(faultinject.Fault{Point: bind.HookIterRound, Kind: faultinject.Delay, Delay: 300 * time.Millisecond})
	s := newTestServer(t, Config{Store: st, DrainDeadline: 2 * time.Second, BindOptions: vliwbind.Options{Hook: inj.At}})

	type reply struct {
		code int
		resp bindResponse
	}
	got := make(chan reply, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/bind",
			strings.NewReader(`{"kernel":"DCT-DIT-2","dp":"[2,1|2,1]","deadline_ms":30000}`))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		var resp bindResponse
		json.Unmarshal(rec.Body.Bytes(), &resp)
		got <- reply{rec.Code, resp}
	}()
	// Wait until the slow bind is actually in flight.
	for i := 0; s.queued.Load() == 0; i++ {
		if i > 2000 {
			t.Fatal("slow request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let it pass the B-INIT floor

	start := time.Now()
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("drain took %v, past the 2s drain deadline", waited)
	}
	r := <-got
	if r.code != http.StatusOK || r.resp.Outcome != OutcomeDegraded {
		t.Fatalf("in-flight request during drain: status=%d outcome=%q, want 200 degraded", r.code, r.resp.Outcome)
	}
	if !r.resp.Audited {
		t.Error("drain-degraded response served without an audit certificate")
	}

	// Admission is closed: new jobs are shed, readiness is off,
	// liveness stays on.
	rec, resp := postBind(t, s, arfJob)
	if rec.Code != http.StatusServiceUnavailable || resp.Outcome != OutcomeRejected {
		t.Errorf("post-drain request: status=%d outcome=%q, want 503 rejected", rec.Code, resp.Outcome)
	}
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 503} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want {
			t.Errorf("%s after drain = %d, want %d", path, rec.Code, want)
		}
	}

	// The journal was flushed and compacted: it exists and replays.
	if _, err := os.Stat(filepath.Join(dir, "results.jsonl")); err != nil {
		t.Errorf("store journal missing after drain: %v", err)
	}
	if err := s.Drain(); err == nil {
		t.Error("second Drain did not report already draining")
	}
}

func TestReadyzSaturated(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("idle readyz = %d, want 200", rec.Code)
	}
	s.queued.Add(s.capacity())
	defer s.queued.Add(-s.capacity())
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "saturated") {
		t.Fatalf("saturated readyz = %d %q, want 503 saturated", rec.Code, rec.Body)
	}
}

func TestMetricsEndpointReportsOutcomesAndBindCounters(t *testing.T) {
	leakcheck.Check(t)
	m := vliwbind.NewMetrics()
	s := newTestServer(t, Config{Metrics: m})
	postBind(t, s, arfJob)
	postBind(t, s, `{"kernel":"ARF","dp":"[2,1|2,1]","deadline_ms":1}`)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var out struct {
		Server struct {
			Outcomes map[string]int64 `json:"outcomes"`
			EWMAms   float64          `json:"ewma_ms"`
			Capacity int64            `json:"capacity"`
		} `json:"server"`
		Bind struct {
			Counters map[string]int64 `json:"Counters"`
		} `json:"bind"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("metrics is not JSON: %v\n%s", err, rec.Body)
	}
	if out.Server.Outcomes[OutcomeOK] != 1 || out.Server.Outcomes[OutcomeRejected] != 1 {
		t.Errorf("outcomes = %v, want one ok and one rejected", out.Server.Outcomes)
	}
	if out.Server.EWMAms <= 0 || out.Server.Capacity <= 0 {
		t.Errorf("implausible server metrics: %+v", out.Server)
	}
	if len(out.Bind.Counters) == 0 {
		t.Error("bind metrics snapshot has no counters despite an observed bind")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative workers", Config{Workers: -1}, "Workers"},
		{"negative queue", Config{QueueDepth: -1}, "QueueDepth"},
		{"pressure above one", Config{DegradePressure: 1.5}, "DegradePressure"},
		{"negative deadline", Config{DefaultDeadline: -time.Second}, "DefaultDeadline"},
		{"min budget above max deadline", Config{MinBudget: time.Minute, MaxDeadline: time.Second}, "MinBudget"},
		{"invalid bind options", Config{BindOptions: vliwbind.Options{Parallelism: -2}}, "Parallelism"},
		{"zero-value store", Config{BindOptions: vliwbind.Options{Store: new(vliwbind.ResultStore)}}, "Store"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.cfg)
			if err == nil {
				t.Fatal("New accepted an invalid config")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not name %q", err, c.want)
			}
		})
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestHealthzAlwaysLive(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
}

// TestEWMAConverges pins the cost estimator the admission decisions
// lean on.
func TestEWMAConverges(t *testing.T) {
	s := newTestServer(t, Config{InitialCost: 100 * time.Millisecond})
	for i := 0; i < 40; i++ {
		s.observeCost(10 * time.Millisecond)
	}
	if got := s.ewma(); got > 12*time.Millisecond || got < 9*time.Millisecond {
		t.Fatalf("ewma after 40 10ms observations = %v, want ~10ms", got)
	}
}

// TestDrainLogsCompactionOnlyWithAJournal: a memory-only store has no
// journal, so its drain reports no compaction; a journal-backed store's
// drain reports its compacted size.
func TestDrainLogsCompactionOnlyWithAJournal(t *testing.T) {
	leakcheck.Check(t)
	journaled, err := vliwbind.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer journaled.Close()
	for _, tc := range []struct {
		name  string
		store *vliwbind.ResultStore
		want  bool
	}{
		{"memory", vliwbind.NewMemoryStore(0), false},
		{"journal", journaled, true},
	} {
		var mu sync.Mutex
		var lines []string
		s := newTestServer(t, Config{Store: tc.store, Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		}})
		if rec, resp := postBind(t, s, arfJob); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %+v", tc.name, rec.Code, resp)
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("%s: Drain: %v", tc.name, err)
		}
		mu.Lock()
		logged := strings.Join(lines, "\n")
		mu.Unlock()
		if got := strings.Contains(logged, "store journal compacted to 1 live entrie(s)"); got != tc.want {
			t.Errorf("%s store: compaction logged %v, want %v:\n%s", tc.name, got, tc.want, logged)
		}
		if !strings.Contains(logged, "drain: complete") {
			t.Errorf("%s store: drain never logged completion:\n%s", tc.name, logged)
		}
	}
}

// TestWorkersResolvesDefault: Workers reports the resolved pool size,
// GOMAXPROCS for a zero Config.Workers.
func TestWorkersResolvesDefault(t *testing.T) {
	if got, want := newTestServer(t, Config{}).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() = %d with Config.Workers 0, want GOMAXPROCS %d", got, want)
	}
	if got := newTestServer(t, Config{Workers: 3}).Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}
