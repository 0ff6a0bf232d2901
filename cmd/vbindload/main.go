// Command vbindload replays a kernel mix against a running vliwbindd
// at a target request rate and reports latency and outcome histograms.
// It is the daemon's load generator: the serve-smoke CI target uses it
// to force one degraded and one rejected request through a live
// daemon, and EXPERIMENTS.md's soak excerpt is its output.
//
// Usage:
//
//	vbindload -addr 127.0.0.1:8417 -n 200 -rps 100 -c 8
//	vbindload -addr $(cat /tmp/vliwbindd.addr) -n 50 -force-degraded -force-rejected
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// outcomeOrder fixes the report's row order.
var outcomeOrder = []string{"ok", "degraded", "rejected", "failed"}

type sample struct {
	outcome string
	latency time.Duration
}

// realMain drives the load run. Exit codes: 0 success, 1 the run could
// not complete (daemon unreachable), 2 usage error.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vbindload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "daemon address host:port (required)")
	n := fs.Int("n", 100, "total requests to send")
	rps := fs.Float64("rps", 0, "target request rate; 0 = as fast as the concurrency allows")
	conc := fs.Int("c", 4, "concurrent client connections")
	kernelMix := fs.String("kernels", "ARF,EWF,FFT", "comma-separated kernel mix, replayed round-robin")
	dp := fs.String("dp", "[2,1|2,1]", "datapath spec sent with every job")
	deadlineMS := fs.Int("deadline-ms", 10000, "per-request deadline")
	forceDegraded := fs.Bool("force-degraded", false, "include one DCT-DIT-2 job on six single-ALU clusters with a 60ms budget (a guaranteed degraded answer)")
	forceRejected := fs.Bool("force-rejected", false, "include one job with a 1ms deadline (a guaranteed rejection)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" {
		fmt.Fprintln(stderr, "vbindload: -addr is required")
		return 2
	}
	if *n <= 0 || *conc <= 0 {
		fmt.Fprintln(stderr, "vbindload: -n and -c must be positive")
		return 2
	}
	kernels := strings.Split(*kernelMix, ",")

	// Build the full job list up front so the mix is deterministic.
	jobs := make([]string, 0, *n)
	for i := 0; i < *n; i++ {
		k := strings.TrimSpace(kernels[i%len(kernels)])
		jobs = append(jobs, fmt.Sprintf(`{"kernel":%q,"dp":%q,"deadline_ms":%d}`, k, *dp, *deadlineMS))
	}
	if *forceDegraded && len(jobs) > 0 {
		// A fixed machine, not -dp: the job must outlast its budget, and
		// B-ITER on six clusters runs well past 60ms while its B-INIT
		// floor takes a few.
		jobs[0] = `{"kernel":"DCT-DIT-2","dp":"[1,1|1,1|1,1|1,1|1,1|1,1]","deadline_ms":20000,"budget_ms":60}`
	}
	if *forceRejected {
		slot := len(jobs) - 1
		jobs[slot] = fmt.Sprintf(`{"kernel":"ARF","dp":%q,"deadline_ms":1}`, *dp)
	}

	var interval time.Duration
	if *rps > 0 {
		interval = time.Duration(float64(time.Second) / *rps)
	}

	client := &http.Client{Timeout: time.Duration(*deadlineMS)*time.Millisecond + 5*time.Second}
	url := "http://" + *addr + "/bind"
	feed := make(chan string)
	samples := make([]sample, 0, *n)
	var mu sync.Mutex
	var unreachable sync.Once
	failed := false

	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range feed {
				start := time.Now()
				resp, err := client.Post(url, "application/json", strings.NewReader(body))
				lat := time.Since(start)
				if err != nil {
					unreachable.Do(func() {
						fmt.Fprintf(stderr, "vbindload: %v\n", err)
						failed = true
					})
					continue
				}
				var out struct {
					Outcome string `json:"outcome"`
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err := json.Unmarshal(bytes.TrimSpace(raw), &out); err != nil || out.Outcome == "" {
					out.Outcome = fmt.Sprintf("http-%d", resp.StatusCode)
				}
				mu.Lock()
				samples = append(samples, sample{out.Outcome, lat})
				mu.Unlock()
			}
		}()
	}

	start := time.Now()
	for i, body := range jobs {
		if interval > 0 && i > 0 {
			// Open-loop pacing against the wall clock, so a slow
			// response does not silently lower the offered rate.
			if sleep := time.Until(start.Add(time.Duration(i) * interval)); sleep > 0 {
				time.Sleep(sleep)
			}
		}
		feed <- body
	}
	close(feed)
	wg.Wait()
	elapsed := time.Since(start)

	if failed && len(samples) == 0 {
		return 1
	}
	report(stdout, samples, elapsed)
	if failed {
		return 1
	}
	return 0
}

// report prints the latency/outcome histogram and the one-line summary
// the serve-smoke target greps.
func report(w io.Writer, samples []sample, elapsed time.Duration) {
	byOutcome := map[string][]time.Duration{}
	for _, s := range samples {
		byOutcome[s.outcome] = append(byOutcome[s.outcome], s.latency)
	}
	fmt.Fprintf(w, "vbindload: %d requests in %v (%.1f rps)\n",
		len(samples), elapsed.Round(time.Millisecond), float64(len(samples))/elapsed.Seconds())
	fmt.Fprintf(w, "%-10s %6s %10s %10s %10s %10s\n", "outcome", "count", "p50", "p90", "p99", "max")
	rows := append([]string(nil), outcomeOrder...)
	for o := range byOutcome {
		if !contains(rows, o) {
			rows = append(rows, o) // unexpected outcomes still get a row
		}
	}
	for _, o := range rows {
		lats := byOutcome[o]
		if len(lats) == 0 {
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Fprintf(w, "%-10s %6d %10v %10v %10v %10v\n", o, len(lats),
			pct(lats, 50), pct(lats, 90), pct(lats, 99), lats[len(lats)-1].Round(10*time.Microsecond))
	}
	var parts []string
	for _, o := range outcomeOrder {
		parts = append(parts, fmt.Sprintf("%s=%d", o, len(byOutcome[o])))
	}
	fmt.Fprintf(w, "summary: %s\n", strings.Join(parts, " "))
}

// pct returns the p-th percentile (nearest-rank) of a sorted slice.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1].Round(10 * time.Microsecond)
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
