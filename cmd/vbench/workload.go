package main

import (
	"math/rand"
	"sort"
	"strings"
	"time"
)

// workload is one named traffic mix.
type workload interface {
	// setup builds the inputs from the seed and warms up. A run calls
	// it config.setups() times and measures with the last set-up.
	setup(e *env) error
	// measure runs the timed phase, appending samples to e. A traced
	// run measures an untraced half, then a traced half.
	measure(e *env) error
	// close releases what setup acquired.
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() workload{
	"bind-paper":    func() workload { return newBindPaper() },
	"bind-random":   func() workload { return newBindRandom() },
	"serve-mix":     func() workload { return &serveMix{} },
	"explore-sweep": func() workload { return &exploreSweep{} },
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// passOrder returns the order in which pass p of a closed loop visits n
// inputs: a fresh seeded shuffle per pass.
func passOrder(seed int64, p, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(p))).Perm(n)
}

// closedLoop drives a closed-loop workload with one caller: op k runs
// input passOrder(seed, k/n)[k%n] and returns its sample. An untraced
// run measures for the configured time, finishing at least one pass so
// every input has a sample. A traced run measures an untraced half the
// same way, then replays exactly those operations with tracing on, so
// the two halves ran the same inputs: every traced answer is checked
// against its untraced twin, and their latency ratio is the tracing
// overhead.
func closedLoop(e *env, n int, op func(k, input int, tr *tracer) sample) {
	run := func(ops, minOps int, dur time.Duration, tr *tracer) {
		t0 := time.Now()
		var order []int
		for k := 0; ; k++ {
			if ops > 0 && k >= ops {
				return
			}
			if k >= minOps && time.Since(t0) >= dur {
				return
			}
			if k%n == 0 {
				order = passOrder(e.cfg.Seed, k/n, n)
			}
			s := op(k, order[k%n], tr)
			s.traced = tr != nil
			e.samples = append(e.samples, s)
			if tr == nil {
				e.busy += s.lat
				e.allocs += s.alloc
				e.cal.due()
			}
		}
	}
	e.repeats = true
	dur := e.cfg.duration()
	if e.cfg.Trace {
		dur /= 2
	}
	rss := startRSS()
	run(e.cfg.MaxOps, n, dur, nil)
	e.rssMB = rss.stopMB()
	if e.cfg.Trace {
		k := len(e.samples)
		run(k, k, 0, e.tr)
	}
}
