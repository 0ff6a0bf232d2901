package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vliwbind"
	"vliwbind/internal/server"
)

// serve-mix: an open loop at a fixed request rate against an in-process
// vliwbindd handler on a loopback listener, over two connections. The
// server runs one worker at Parallelism 1 with a journal-backed store.
// 90% of requests repeat a working set of Table 1 jobs — half by kernel
// name, half as the .dfg text of a seeded isomorphic renaming — and are
// served from the store, which set-up warms; 10% are fresh random DFGs,
// each a guaranteed miss (a full bind plus a journal append). The run's
// seed draws the stream; the fresh graphs come from the graph seed.
const (
	// serveRate is the fixed request rate: about 26% of the capacity
	// measured on a 2-CPU machine. At 450 req/s the generator overslept
	// due times by 4.0–4.5 ms at p99 in traced runs, too close to
	// maxLateP99 (see README.md).
	serveRate = 300.0
	// serveConns is the number of client connections (and sender
	// goroutines) the generator uses.
	serveConns = 2
	// missShare is the fraction of requests that are fresh graphs, of
	// freshMin to freshMax ops. A full bind costs about 2 ms at that size
	// and 25 ms at 24–48 ops: graphs that large would give B-ITER most
	// of the server's time, and one slow graph would queue every request
	// behind it, where this workload is meant for the layers around the
	// search.
	missShare          = 0.10
	freshMin, freshMax = 16, 24
	// Per-class deadlines: generous enough that the server neither
	// rejects nor degrades requests at serveRate.
	hitDeadline  = 2 * time.Second
	missDeadline = 10 * time.Second
	// maxLateP99 is the most the generator may oversleep due times (p99)
	// before a run's latencies are not trusted.
	maxLateP99 = 5 * time.Millisecond
)

// missMachines are the datapaths fresh graphs are bound on, in turn.
var missMachines = []string{"[2,1|1,1|1,1]", "[2,1|2,1]"}

// Headers that carry a request's trace context to the handler wrapper.
const (
	reqHeader  = "X-Vbench-Req"
	spanHeader = "X-Vbench-Span"
)

// bindRequest is the /bind job description vbench sends.
type bindRequest struct {
	Kernel     string `json:"kernel,omitempty"`
	DFG        string `json:"dfg,omitempty"`
	DP         string `json:"dp"`
	Algo       string `json:"algo,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// bindReply is the part of a /bind reply vbench reads.
type bindReply struct {
	Outcome string `json:"outcome"`
	L       int    `json:"l"`
	Moves   int    `json:"moves"`
	Binding []int  `json:"binding"`
	Error   string `json:"error"`
}

// job is one request of an open-loop stream.
type job struct {
	due      time.Duration // send time, counted from the stream's start
	body     []byte
	deadline time.Duration // an answer later than this is not good
	input    int
}

// reply is what the generator saw for one job.
type reply struct {
	status int
	resp   bindReply
	lat    time.Duration // due time to response complete
	late   time.Duration // how far past due an idle sender woke to send it
	err    error
}

// loadgen sends jobs open-loop over conns connections: job i is due at
// start+jobs[i].due − jobs[0].due whether or not earlier jobs have been
// answered. Each connection has one sender goroutine taking the next
// job in order. A job whose due time passed while every sender was busy
// is sent as soon as one frees up, and every latency counts from the due
// time, never from the send: a stall that holds every connection shows
// in the latencies of the jobs queued behind it. late records only how
// far a sender overslept a due time it was idle for — the generator's
// own lag, as opposed to the system's backlog. It returns the replies
// and the wall time from start to the last reply.
func loadgen(client *http.Client, url string, jobs []job, conns int, tr *tracer, reqBase int) ([]reply, time.Duration) {
	replies := make([]reply, len(jobs))
	if len(jobs) == 0 {
		return replies, 0
	}
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				due := start.Add(jobs[i].due - jobs[0].due)
				var late time.Duration
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					late = time.Since(due)
				}
				replies[i] = send(client, url, jobs[i], due, tr, "req-"+strconv.Itoa(reqBase+i))
				replies[i].late = late
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// send posts one job and reads the whole reply.
func send(client *http.Client, url string, j job, due time.Time, tr *tracer, req string) reply {
	sent := time.Now()
	root := tr.add("loadgen.request", req, 0, due, due)
	tr.add("loadgen.queue", req, root, due, sent)
	hs := tr.start("http.request", req, root)
	r := reply{}
	hreq, err := http.NewRequest(http.MethodPost, url+"/bind", bytes.NewReader(j.body))
	if err == nil {
		hreq.Header.Set("Content-Type", "application/json")
		if tr != nil {
			hreq.Header.Set(reqHeader, req)
			hreq.Header.Set(spanHeader, strconv.Itoa(hs))
		}
		var resp *http.Response
		if resp, err = client.Do(hreq); err == nil {
			r.status = resp.StatusCode
			var body []byte
			if body, err = io.ReadAll(resp.Body); err == nil {
				err = json.Unmarshal(body, &r.resp)
			}
			resp.Body.Close()
		}
	}
	tr.finish(hs)
	tr.finish(root)
	r.err = err
	r.lat = time.Since(due)
	return r
}

// tracedHandler wraps the server's handler in a server.handler span
// while a tracer is installed; the span's parent comes from the
// request's headers.
type tracedHandler struct {
	h  http.Handler
	tr atomic.Pointer[tracer]
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := tr.start("server.handler", r.Header.Get(reqHeader), parent)
	t.h.ServeHTTP(w, r)
	tr.finish(id)
}

// service is a vliwbindd server on a loopback listener with a client
// limited to serveConns connections.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	wrap   *tracedHandler
	url    string
	client *http.Client
}

// startService serves st with one worker at Parallelism 1. A non-nil
// obs receives every bind's engine events.
func startService(st *vliwbind.ResultStore, obs vliwbind.Observer) (*service, error) {
	srv, err := server.New(server.Config{
		Workers:     1,
		Store:       st,
		BindOptions: vliwbind.Options{Parallelism: 1, Observer: obs},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, wrap: &tracedHandler{h: srv}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
		}}}
	s.hs = &http.Server{Handler: s.wrap}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serve loop, and drains the
// server (which compacts its store's journal).
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if derr := s.srv.Drain(); err == nil {
		err = derr
	}
	return err
}

// serveInput is one distinct input of the request stream.
type serveInput struct {
	name    string // graph name the engine stamps on its events
	g       *vliwbind.Graph
	dp      *vliwbind.Datapath
	cp, ops int
}

// serveMix is the serve-mix workload. Inputs [0, w) are the working
// set's jobs by kernel name, [w, 2w) their renamed .dfg copies, and
// every later input is one fresh graph.
type serveMix struct {
	inputs []serveInput
	fresh  int   // index of the first fresh-graph input
	warm   []job // one job per working-set input
	jobs   []job // the timed stream; a traced run splits it in halves
	half   int   // first job of the traced half (len(jobs) when untraced)
	dir    string
	st     *vliwbind.ResultStore
	svc    *service
	logs   *kernelLogs
}

// workingSet is the Table 1 rows the hit traffic repeats. DCT-DIT-2's
// rows are left to bind-paper: they would triple the warm-up.
func workingSet() []vliwbind.ExperimentRow {
	var rows []vliwbind.ExperimentRow
	for _, r := range vliwbind.Table1() {
		if r.Kernel != "DCT-DIT-2" {
			rows = append(rows, r)
		}
	}
	return rows
}

func (s *serveMix) setup(e *env) error {
	s.close()
	if err := s.plan(e.cfg); err != nil {
		return err
	}
	dir, err := e.scratchDir("serve-")
	if err != nil {
		return err
	}
	s.dir = dir
	if s.st, err = vliwbind.OpenStore(dir); err != nil {
		return err
	}
	s.logs = &kernelLogs{}
	if s.svc, err = startService(s.st, s.logs); err != nil {
		return err
	}
	// Warm the working set. A kernel's first request runs the search and
	// publishes its entry; its renamed copy usually hits that entry, but
	// not always — the canonical form can tell isomorphic copies of a
	// symmetric kernel apart — and then publishes an entry of its own.
	for _, jb := range s.warm {
		r := send(s.svc.client, s.svc.url, jb, time.Now(), nil, "")
		if r.err != nil || r.status != http.StatusOK || r.resp.Outcome != server.OutcomeOK {
			return fmt.Errorf("warm-up of %s: status %d, outcome %q: %v %s", s.inputs[jb.input].name, r.status, r.resp.Outcome, r.err, r.resp.Error)
		}
	}
	return nil
}

// plan draws the working set and the request stream from the seed.
func (s *serveMix) plan(cfg config) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := workingSet()
	w := len(rows)
	s.inputs = make([]serveInput, 2*w)
	s.fresh = 2 * w
	hits := make([]job, 2*w)
	s.warm = make([]job, 2*w)
	for j, r := range rows {
		k, err := vliwbind.KernelByName(r.Kernel)
		if err != nil {
			return err
		}
		g := k.Build()
		dp, err := r.Datapath()
		if err != nil {
			return err
		}
		rg, err := vliwbind.ParseGraphString(renamed(g, fmt.Sprintf("w%d", j), rng))
		if err != nil {
			return fmt.Errorf("renamed %s: %w", r.Kernel, err)
		}
		s.inputs[j] = serveInput{name: r.Kernel, g: g, dp: dp, cp: criticalPath(g, dp), ops: g.NumNodes()}
		s.inputs[w+j] = serveInput{name: rg.Name(), g: rg, dp: dp, cp: s.inputs[j].cp, ops: s.inputs[j].ops}
		byName := bindRequest{Kernel: r.Kernel, DP: dp.SpecString()}
		byText := bindRequest{DFG: printGraph(rg), DP: dp.SpecString()}
		hits[j] = job{input: j, deadline: hitDeadline, body: mustJSON(byName)}
		hits[w+j] = job{input: w + j, deadline: hitDeadline, body: mustJSON(byText)}
		// Warm-up requests are searches, so they get a search's deadline.
		byName.DeadlineMS, byText.DeadlineMS = missDeadline.Milliseconds(), missDeadline.Milliseconds()
		s.warm[j] = job{input: j, body: mustJSON(byName)}
		s.warm[w+j] = job{input: w + j, body: mustJSON(byText)}
	}

	s.half = int(serveRate * cfg.Seconds)
	if cfg.Trace {
		s.half /= 2
	}
	s.half = max(cfg.capped(s.half), 1)
	n := s.half
	if cfg.Trace {
		n *= 2
	}
	// Each half of the stream holds exactly its share of fresh graphs, at
	// seeded positions. The fresh graphs themselves come from the graph
	// seed, in a fixed order, for the reason bind-random's do: one
	// graph's bind time varies severalfold with its structure, and under
	// queueing a few slow graphs move every later request's latency.
	graphs := rand.New(rand.NewSource(cfg.GraphSeed))
	s.jobs = make([]job, 0, n)
	for start := 0; start < n; start += s.half {
		fresh := make([]bool, s.half)
		for _, i := range rng.Perm(s.half)[:int(math.Round(missShare*float64(s.half)))] {
			fresh[i] = true
		}
		for i := range fresh {
			jb := hits[rng.Intn(2*w)]
			if fresh[i] {
				g := vliwbind.RandomGraph(vliwbind.RandomGraphConfig{Ops: freshMin + graphs.Intn(freshMax-freshMin+1), Seed: graphs.Int63()})
				dp, err := vliwbind.ParseDatapath(missMachines[len(s.inputs)%len(missMachines)], vliwbind.DatapathConfig{})
				if err != nil {
					return err
				}
				jb = job{input: len(s.inputs), deadline: missDeadline,
					body: mustJSON(bindRequest{DFG: printGraph(g), DP: dp.SpecString(), DeadlineMS: missDeadline.Milliseconds()})}
				s.inputs = append(s.inputs, serveInput{name: g.Name(), g: g, dp: dp, cp: criticalPath(g, dp), ops: g.NumNodes()})
			}
			// Due times restart with each half: loadgen counts them from
			// the first job it is given.
			jb.due = time.Duration(float64(i) / serveRate * float64(time.Second))
			s.jobs = append(s.jobs, jb)
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and numbers are marshalled
	}
	return b
}

func (s *serveMix) measure(e *env) error {
	rss := startRSS()
	stop, calibrated := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(calibrated)
		e.cal.during(stop)
	}()
	a0 := totalAlloc()
	replies, wall := loadgen(s.svc.client, s.svc.url, s.jobs[:s.half], serveConns, nil, 0)
	e.allocs += totalAlloc() - a0
	close(stop)
	<-calibrated
	e.busy += wall
	e.rssMB = rss.stopMB()
	if e.cfg.Trace {
		s.logs.on.Store(true)
		s.svc.wrap.tr.Store(e.tr)
		traced, _ := loadgen(s.svc.client, s.svc.url, s.jobs[s.half:], serveConns, e.tr, s.half)
		s.svc.wrap.tr.Store(nil)
		s.logs.on.Store(false)
		replies = append(replies, traced...)
	}

	late := make([]float64, len(replies))
	for i, r := range replies {
		late[i] = ms(r.late)
		e.late = append(e.late, r.late)
	}
	if p := quantile(late, 0.99); p > ms(maxLateP99) {
		return fmt.Errorf("the load generator ran late: p99 %.2f ms past due, limit %v; the host is too busy to trust this run", p, maxLateP99)
	}

	// Check every answer after the timed phase, so the audits stay out
	// of the latencies.
	for i, r := range replies {
		e.samples = append(e.samples, s.check(e, i, r))
	}
	if e.cfg.Trace {
		s.splitMisses(e)
	}
	return nil
}

// check turns one reply into a sample: the served binding is
// re-evaluated on the request's graph and audited, its (L, M) must be
// what the reply claimed, and a repeated input must repeat its answer.
func (s *serveMix) check(e *env, i int, r reply) sample {
	jb := s.jobs[i]
	in := s.inputs[jb.input]
	traced := i >= s.half
	smp := sample{input: jb.input, lat: r.lat, traced: traced}
	if r.err == nil && (r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable) {
		smp.rejected = true
		return smp
	}
	if r.err != nil || r.status != http.StatusOK {
		e.errorf("request %d (%s): status %d: %v %s", i, in.name, r.status, r.err, r.resp.Error)
		return smp
	}
	var tr *tracer
	if traced {
		tr = e.tr
	}
	req := "req-" + strconv.Itoa(i)
	res, err := vliwbind.EvaluateBinding(in.g, in.dp, r.resp.Binding)
	if err == nil {
		err = tr.timed("audit.audit", req, 0, func() error { return vliwbind.AuditResult(res) })
	}
	if err != nil {
		e.wrongf("request %d (%s): served binding fails audit: %v", i, in.name, err)
		return smp
	}
	if res.L() != r.resp.L || res.Moves() != r.resp.Moves {
		e.wrongf("request %d (%s): reply claims (L, M) = (%d, %d), the binding gives (%d, %d)",
			i, in.name, r.resp.L, r.resp.Moves, res.L(), res.Moves())
		return smp
	}
	if r.resp.Outcome == server.OutcomeDegraded {
		smp.degraded = true // valid, but not the complete answer
		return smp
	}
	if traced {
		e.probe(strconv.Itoa(jb.input), probeItem{g: in.g, dp: in.dp, res: res})
	}
	ok := e.result(jb.input, in.name, quality{L: res.L(), M: res.Moves(), CP: in.cp, Ops: in.ops})
	smp.good = ok && r.resp.Outcome == server.OutcomeOK && r.lat <= jb.deadline
	return smp
}

// splitMisses turns the engine events of each traced miss into B-INIT
// and B-ITER spans under its handler span, and adds the traced half's
// engine counts. A miss's graph name is unique, so its events are its
// own: the search starts at its store.miss event and ends at its last.
func (s *serveMix) splitMisses(e *env) {
	handler := make(map[string]int)
	for _, sp := range e.tr.all() {
		if sp.Name == "server.handler" {
			handler[sp.Req] = sp.ID
		}
	}
	t := s.logs.totals()
	t.calls = 0
	for i := s.half; i < len(s.jobs); i++ {
		if s.jobs[i].input < s.fresh {
			continue
		}
		l := s.logs.get(s.inputs[s.jobs[i].input].name)
		if l == nil {
			continue
		}
		missAt, first, last := l.marks()
		if missAt.IsZero() {
			continue
		}
		t.calls++
		req := "req-" + strconv.Itoa(i)
		e.tr.splitBind(req, handler[req], missAt, last, first)
	}
	e.eng.add(t)
}

func (s *serveMix) close() {
	if s.svc != nil {
		s.svc.close()
		s.svc = nil
	}
	if s.st != nil {
		s.st.Close()
		s.st = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}
