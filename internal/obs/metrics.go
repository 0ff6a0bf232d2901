package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// PhaseStat accumulates one named duration series: how often the phase
// ran and how long it took in total and at worst. Durations are
// measured with the monotonic clock (time.Since) by whoever observes
// them, so wall-clock steps never corrupt a phase.
type PhaseStat struct {
	Count   int64
	TotalNs int64
	MaxNs   int64
}

// Mean returns the average duration of one phase run.
func (p PhaseStat) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return time.Duration(p.TotalNs / p.Count)
}

// Snapshot is a point-in-time copy of a Metrics instance, safe to keep
// and inspect after the run moves on.
type Snapshot struct {
	// Phases maps phase name to its accumulated timings.
	Phases map[string]PhaseStat
	// Counters maps counter name to its value.
	Counters map[string]int64
}

// Metrics accumulates per-phase timers and event counters for one or
// more binding runs. It is both a direct API (StartPhase, ObservePhase,
// Inc) and an Observer: wired into Options.Observer it derives counters
// and pool timings from the engine's event stream. All methods are safe
// for concurrent use.
type Metrics struct {
	mu       sync.Mutex
	phases   map[string]*PhaseStat
	counters map[string]int64
}

// NewMetrics returns an empty metrics accumulator.
func NewMetrics() *Metrics {
	return &Metrics{
		phases:   make(map[string]*PhaseStat),
		counters: make(map[string]int64),
	}
}

// StartPhase starts a monotonic timer for one run of the named phase;
// the returned stop function records the elapsed time.
func (m *Metrics) StartPhase(name string) (stop func()) {
	t0 := time.Now()
	return func() { m.ObservePhase(name, time.Since(t0)) }
}

// ObservePhase folds one completed run of the named phase into its
// stats.
func (m *Metrics) ObservePhase(name string, d time.Duration) {
	ns := d.Nanoseconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.phases[name]
	if p == nil {
		p = &PhaseStat{}
		m.phases[name] = p
	}
	p.Count++
	p.TotalNs += ns
	if ns > p.MaxNs {
		p.MaxNs = ns
	}
}

// Inc adds delta to the named counter.
func (m *Metrics) Inc(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Event implements Observer: it derives counters and pool-batch timings
// from the engine's event stream. Unknown event types are counted under
// their type name, so nothing in the stream is invisible here.
func (m *Metrics) Event(e Event) {
	switch e.Type {
	case EvEval:
		m.Inc("evals", 1)
		switch e.Cache {
		case "hit":
			m.Inc("cache.hits", 1)
		case "miss":
			m.Inc("cache.misses", 1)
		}
	case EvSweepConfig:
		m.Inc("sweep.configs", 1)
	case EvSweepSeed:
		m.Inc("sweep.seeds", 1)
	case EvBInitChoice:
		m.Inc("binit.choices", 1)
	case EvIterRound:
		m.Inc("iter.rounds", 1)
		if e.Pass != "" {
			m.Inc("iter.rounds."+e.Pass, 1)
		}
	case EvIterAccept:
		m.Inc("iter.accepts", 1)
	case EvIterStop:
		if e.Verdict != "" {
			m.Inc("iter.stops."+e.Verdict, 1)
		}
	case EvRetry:
		m.Inc("task.retries", 1)
	case EvDegraded:
		m.Inc("degraded.exits", 1)
	case EvPoolBatch:
		m.Inc("pool.batches", 1)
		m.Inc("pool.tasks", int64(e.Tasks))
		m.ObservePhase("pool.queue["+e.Phase+"]", time.Duration(e.QueueNs))
		m.ObservePhase("pool.exec["+e.Phase+"]", time.Duration(e.ExecNs))
	case EvPhase:
		m.ObservePhase(e.Name, time.Duration(e.DurNs))
	default:
		m.Inc("events."+e.Type, 1)
	}
}

// Snapshot copies the current state for inspection.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Phases:   make(map[string]PhaseStat, len(m.phases)),
		Counters: make(map[string]int64, len(m.counters)),
	}
	for k, v := range m.phases {
		s.Phases[k] = *v
	}
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	return s
}

// Dump renders the metrics as a deterministic text table (keys sorted),
// suitable for a CLI -metrics flag.
func (m *Metrics) Dump() string {
	s := m.Snapshot()
	var b strings.Builder
	b.WriteString("metrics:\n")
	if len(s.Counters) > 0 {
		names := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("  counters:\n")
		for _, k := range names {
			fmt.Fprintf(&b, "    %-24s %d\n", k, s.Counters[k])
		}
	}
	if len(s.Phases) > 0 {
		names := make([]string, 0, len(s.Phases))
		for k := range s.Phases {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("  phases:\n")
		for _, k := range names {
			p := s.Phases[k]
			fmt.Fprintf(&b, "    %-24s n=%-6d total=%-12v mean=%-12v max=%v\n",
				k, p.Count, time.Duration(p.TotalNs), p.Mean(), time.Duration(p.MaxNs))
		}
	}
	return b.String()
}
