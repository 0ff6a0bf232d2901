package server

// The /bind handler: request schema, admission control, the
// degradation ladder, and fault containment. Certification is the
// facade's: every bind runs through its store seam, which audits each
// result it returns exactly once.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"vliwbind"
	"vliwbind/internal/bind"
)

// bindRequest is the POST /bind job description. Exactly one of Kernel
// (a paper benchmark name) or DFG (the .dfg text format) names the
// graph; DP and the machine knobs mirror the CLI flags.
type bindRequest struct {
	Kernel string `json:"kernel,omitempty"`
	DFG    string `json:"dfg,omitempty"`
	// DP is the datapath spec in the paper's [alus,muls|…] notation,
	// optionally carrying @-directives (topology, latencies).
	DP       string `json:"dp"`
	Buses    int    `json:"buses,omitempty"`
	MoveLat  int    `json:"movelat,omitempty"`
	Topology string `json:"topology,omitempty"`
	LinkCap  int    `json:"linkcap,omitempty"`
	// Algo selects the binder: "bind" (B-INIT + B-ITER, the default)
	// or "init" (B-INIT only).
	Algo string `json:"algo,omitempty"`
	// DeadlineMS is the client's end-to-end deadline, queue wait
	// included. Zero selects the server default; values above the
	// server maximum are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// BudgetMS, when positive, caps the compute budget below the
	// deadline — an explicit request for a (possibly) degraded answer.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}

// bindResponse is the /bind reply. Outcome is always set and is
// exactly one of ok, degraded, rejected, failed.
type bindResponse struct {
	Outcome string `json:"outcome"`
	// L and Moves are the solution's schedule length and transfer
	// count; Binding maps node IDs to clusters. Present on 200 only.
	L       int   `json:"l,omitempty"`
	Moves   int   `json:"moves,omitempty"`
	Binding []int `json:"binding,omitempty"`
	// Audited is true on every 200: the facade's store seam certified
	// the result with a fresh end-to-end audit, exactly once.
	Audited bool `json:"audited,omitempty"`
	// Source is "store" when the answer came from the cross-request
	// result store, "search" when freshly computed.
	Source string `json:"source,omitempty"`
	// Reason explains a degraded or rejected outcome.
	Reason string `json:"reason,omitempty"`
	// RetryAfterMS accompanies rejections: when the queue should have
	// drained enough to admit a retry. Also sent as a Retry-After
	// header (in seconds).
	RetryAfterMS int64   `json:"retry_after_ms,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// maxRequestBody bounds how much of a request body the server reads; a
// DFG past this size is not a binding job, it is a memory attack, and
// it is answered 413.
const maxRequestBody = 4 << 20

func (s *Server) handleBind(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeFailure(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST (got %s)", r.Method))
		return
	}
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "draining", s.cfg.DrainDeadline)
		return
	}

	var req bindRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeFailure(w, status, fmt.Errorf("decode request: %w", err))
		return
	}
	g, dp, algo, err := s.parseJob(req)
	if err != nil {
		s.writeFailure(w, http.StatusBadRequest, err)
		return
	}

	// Admission control: predict whether this job can meet its
	// deadline given the queue ahead of it; shed immediately if not.
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	if deadline < s.cfg.MinBudget {
		// Too small to certify even the B-INIT floor — a constant-time
		// rejection, deliberately independent of the cost estimate so
		// clients get a stable answer.
		s.reject(w, http.StatusTooManyRequests, fmt.Sprintf("deadline %v is below the minimum certifiable budget %v", deadline, s.cfg.MinBudget), s.ewma())
		return
	}
	depth := s.queued.Load()
	if depth >= s.capacity() {
		s.reject(w, http.StatusTooManyRequests, "queue full", s.predictWait(depth))
		return
	}
	if wait := s.predictWait(depth); wait+s.cfg.MinBudget > deadline {
		s.reject(w, http.StatusTooManyRequests, fmt.Sprintf("predicted queue wait %v leaves no certifiable budget within deadline %v", wait.Round(time.Millisecond), deadline), wait)
		return
	}

	// Admit. The admitMu critical section orders this Add against
	// Drain's flag flip, so Drain never misses an admitted request.
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		s.reject(w, http.StatusServiceUnavailable, "draining", s.cfg.DrainDeadline)
		return
	}
	s.inflight.Add(1)
	s.admitMu.Unlock()
	defer s.inflight.Done()
	s.queued.Add(1)
	defer s.queued.Add(-1)

	absDeadline := time.Now().Add(deadline)

	// Wait for a worker slot, but never into deadline territory: if
	// the slot arrives too late to fit MinBudget, the prediction was
	// wrong and the honest answer is a late rejection, not a doomed
	// bind.
	slotWait := time.NewTimer(time.Until(absDeadline) - s.cfg.MinBudget)
	defer slotWait.Stop()
	select {
	case s.sem <- struct{}{}:
	case <-slotWait.C:
		s.reject(w, http.StatusTooManyRequests, "queue wait exhausted the deadline", s.predictWait(s.queued.Load()))
		return
	case <-r.Context().Done():
		s.writeFailure(w, statusClientClosedRequest, fmt.Errorf("client went away while queued: %w", context.Cause(r.Context())))
		return
	case <-s.baseCtx.Done():
		s.reject(w, http.StatusServiceUnavailable, "draining", s.cfg.DrainDeadline)
		return
	}
	defer func() { <-s.sem }()

	// Degradation ladder: the budget starts as the time left until the
	// deadline and only ever shrinks — by an explicit client budget, or
	// by queue pressure capping every job to the moving cost estimate
	// so the queue drains.
	budget := time.Until(absDeadline)
	reason := ""
	if req.BudgetMS > 0 {
		if b := time.Duration(req.BudgetMS) * time.Millisecond; b < budget {
			budget, reason = b, "client budget"
		}
	}
	if float64(depth) > s.cfg.DegradePressure*float64(s.capacity()) {
		if cap := max(s.cfg.MinBudget, s.ewma()); cap < budget {
			budget, reason = cap, fmt.Sprintf("queue pressure (%d/%d)", depth, s.capacity())
		}
	}
	if budget < s.cfg.MinBudget {
		budget = s.cfg.MinBudget
	}

	ctx, cancel := context.WithTimeoutCause(r.Context(), budget, fmt.Errorf("compute budget %v exhausted", budget.Round(time.Millisecond)))
	defer cancel()
	// Link the bind to drain: when Drain force-degrades stragglers the
	// anytime path returns the audited best-so-far immediately.
	stopLink := context.AfterFunc(s.baseCtx, cancel)
	defer stopLink()

	opts := s.cfg.BindOptions
	stats := &vliwbind.CacheStats{}
	opts.Stats = stats
	opts.Store = s.cfg.Store
	if s.cfg.Metrics != nil {
		opts.Observer = s.cfg.Metrics
	}

	// Fault containment: the engine already retries transient task
	// faults internally; if a fault still escapes (PanicError), re-run
	// the whole bind a capped number of times with exponential backoff
	// before conceding a 500. Faults never escape as panics here —
	// only as errors on this one request.
	start := time.Now()
	var res *vliwbind.Result
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		res, err = runBind(ctx, algo, g, dp, opts)
		if err == nil || attempt >= s.cfg.RequestRetries || !bind.Transient(err) || ctx.Err() != nil {
			break
		}
		s.cfg.Logf("bind: transient fault (attempt %d/%d), retrying in %v: %v", attempt+1, s.cfg.RequestRetries, backoff, err)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
		}
		if backoff < 8*time.Millisecond {
			backoff *= 2
		}
	}
	elapsed := time.Since(start)

	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Cancelled before the B-INIT floor existed: nothing could
			// be certified in the time allowed.
			status = http.StatusGatewayTimeout
		}
		s.writeFailure(w, status, err)
		return
	}

	resp := bindResponse{
		Outcome:   OutcomeOK,
		L:         res.L(),
		Moves:     res.Moves(),
		Binding:   res.Binding,
		Audited:   true,
		Source:    "search",
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if stats.StoreHits() > 0 {
		resp.Source = "store"
	}
	if res.Degraded {
		resp.Outcome = OutcomeDegraded
		resp.Reason = reason
		if res.Budget != nil {
			if resp.Reason != "" {
				resp.Reason += ": "
			}
			resp.Reason += res.Budget.Error()
		}
		s.degraded.Add(1)
	} else {
		s.observeCost(elapsed)
		s.ok.Add(1)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// statusClientClosedRequest is nginx's 499: the client disconnected
// before the server produced an answer. Nobody reads the response;
// the code exists for the access log and the outcome counters.
const statusClientClosedRequest = 499

// parseJob resolves the request's graph, datapath, and binder.
func (s *Server) parseJob(req bindRequest) (*vliwbind.Graph, *vliwbind.Datapath, string, error) {
	var g *vliwbind.Graph
	switch {
	case req.Kernel != "" && req.DFG != "":
		return nil, nil, "", errors.New("request names both kernel and dfg; send exactly one")
	case req.Kernel != "":
		k, err := vliwbind.KernelByName(req.Kernel)
		if err != nil {
			return nil, nil, "", err
		}
		g = k.Build()
	case req.DFG != "":
		var err error
		g, err = vliwbind.ParseGraphString(req.DFG)
		if err != nil {
			return nil, nil, "", fmt.Errorf("parse dfg: %w", err)
		}
	default:
		return nil, nil, "", errors.New("request names neither kernel nor dfg; send exactly one")
	}
	if req.DP == "" {
		return nil, nil, "", errors.New("request is missing the datapath spec (dp)")
	}
	dp, err := vliwbind.ParseDatapath(req.DP, vliwbind.DatapathConfig{
		NumBuses: req.Buses,
		MoveLat:  req.MoveLat,
		Topology: req.Topology,
		LinkCap:  req.LinkCap,
	})
	if err != nil {
		return nil, nil, "", fmt.Errorf("parse datapath: %w", err)
	}
	algo := req.Algo
	if algo == "" {
		algo = "bind"
	}
	if algo != "bind" && algo != "init" {
		return nil, nil, "", fmt.Errorf("unknown algo %q; want \"bind\" or \"init\"", req.Algo)
	}
	return g, dp, algo, nil
}

func runBind(ctx context.Context, algo string, g *vliwbind.Graph, dp *vliwbind.Datapath, opts vliwbind.Options) (*vliwbind.Result, error) {
	if algo == "init" {
		return vliwbind.InitialBindContext(ctx, g, dp, opts)
	}
	return vliwbind.BindContext(ctx, g, dp, opts)
}

func (s *Server) reject(w http.ResponseWriter, status int, reason string, retryAfter time.Duration) {
	s.rejected.Add(1)
	if retryAfter < 0 {
		retryAfter = 0
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(math.Ceil(retryAfter.Seconds()))))
	s.writeJSON(w, status, bindResponse{
		Outcome:      OutcomeRejected,
		Reason:       reason,
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}

func (s *Server) writeFailure(w http.ResponseWriter, status int, err error) {
	s.failed.Add(1)
	s.cfg.Logf("bind: failed (%d): %v", status, err)
	s.writeJSON(w, status, bindResponse{Outcome: OutcomeFailed, Error: err.Error()})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
