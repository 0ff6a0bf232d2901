package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJournalWritesDecodableJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Event(Event{Type: EvSweepConfig, LPR: 14, Reverse: true, Key: "0001"})
	j.Event(Event{Type: EvEval, Key: "0001", L: 15, M: 3, QU: []int{15, 2, 1}, Cache: "miss"})
	j.Event(Event{Type: EvIterRound, Pass: "qu", Round: 1, Candidates: 12})
	if err := j.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := j.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	sc := bufio.NewScanner(&buf)
	var seq int64
	var types []string
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q does not decode: %v", sc.Text(), err)
		}
		if e.Seq != seq+1 {
			t.Fatalf("seq %d after %d, want contiguous", e.Seq, seq)
		}
		seq = e.Seq
		types = append(types, e.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	want := []string{EvSweepConfig, EvEval, EvIterRound}
	if len(types) != len(want) {
		t.Fatalf("got %d lines, want %d", len(types), len(want))
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("line %d type = %q, want %q", i, types[i], want[i])
		}
	}
}

func TestJournalOmitsEmptyFields(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Event(Event{Type: EvIterStop, Pass: "qm", Verdict: "exhausted"})
	if err := j.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	line := strings.TrimSpace(buf.String())
	for _, forbidden := range []string{"\"key\"", "\"lpr\"", "\"choices\"", "\"qu\"", "\"temp\""} {
		if strings.Contains(line, forbidden) {
			t.Errorf("journal line %s contains unused field %s", line, forbidden)
		}
	}
	for _, required := range []string{"\"type\":\"iter.stop\"", "\"pass\":\"qm\"", "\"verdict\":\"exhausted\""} {
		if !strings.Contains(line, required) {
			t.Errorf("journal line %s missing %s", line, required)
		}
	}
}

// errWriter fails after n bytes, to exercise the sticky-error path.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errShort
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errShort
	}
	w.n -= len(p)
	return len(p), nil
}

var errShort = &json.UnsupportedValueError{Str: "writer full"}

func TestJournalStickyError(t *testing.T) {
	j := NewJournal(&errWriter{n: 8})
	for i := 0; i < 2000; i++ {
		j.Event(Event{Type: EvEval, Key: "00"})
	}
	if err := j.Flush(); err == nil {
		t.Fatal("Flush returned nil after writer failure")
	}
}

func TestMetricsDerivesCountersFromEvents(t *testing.T) {
	m := NewMetrics()
	m.Event(Event{Type: EvEval, Cache: "hit"})
	m.Event(Event{Type: EvEval, Cache: "miss"})
	m.Event(Event{Type: EvEval, Cache: "miss"})
	m.Event(Event{Type: EvSweepConfig})
	m.Event(Event{Type: EvSweepSeed})
	m.Event(Event{Type: EvIterRound, Pass: "qu"})
	m.Event(Event{Type: EvIterRound, Pass: "qm"})
	m.Event(Event{Type: EvIterAccept})
	m.Event(Event{Type: EvIterStop, Verdict: "exhausted"})
	m.Event(Event{Type: EvRetry})
	m.Event(Event{Type: EvDegraded})
	m.Event(Event{Type: EvPoolBatch, Phase: "binit.eval", Tasks: 7, QueueNs: 100, ExecNs: 900})
	m.Event(Event{Type: EvPhase, Name: "bind", DurNs: int64(time.Millisecond)})
	m.Event(Event{Type: "someday.new", Name: "x"})

	s := m.Snapshot()
	wantCounters := map[string]int64{
		"evals":                3,
		"cache.hits":           1,
		"cache.misses":         2,
		"sweep.configs":        1,
		"sweep.seeds":          1,
		"iter.rounds":          2,
		"iter.rounds.qu":       1,
		"iter.rounds.qm":       1,
		"iter.accepts":         1,
		"iter.stops.exhausted": 1,
		"task.retries":         1,
		"degraded.exits":       1,
		"pool.batches":         1,
		"pool.tasks":           7,
		"events.someday.new":   1,
	}
	for k, v := range wantCounters {
		if s.Counters[k] != v {
			t.Errorf("counter %q = %d, want %d", k, s.Counters[k], v)
		}
	}
	if got := s.Phases["pool.exec[binit.eval]"]; got.Count != 1 || got.TotalNs != 900 {
		t.Errorf("pool.exec phase = %+v, want count 1 total 900", got)
	}
	if got := s.Phases["bind"]; got.Count != 1 || got.TotalNs != int64(time.Millisecond) {
		t.Errorf("bind phase = %+v", got)
	}
}

func TestMetricsPhaseTimerAndDump(t *testing.T) {
	m := NewMetrics()
	stop := m.StartPhase("load")
	stop()
	m.ObservePhase("load", 3*time.Millisecond)
	m.Inc("things", 2)
	s := m.Snapshot()
	if s.Phases["load"].Count != 2 {
		t.Fatalf("load count = %d, want 2", s.Phases["load"].Count)
	}
	if s.Phases["load"].Mean() <= 0 {
		t.Fatalf("mean = %v, want > 0", s.Phases["load"].Mean())
	}
	d := m.Dump()
	for _, want := range []string{"metrics:", "counters:", "things", "phases:", "load"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
	// Dump must be deterministic: keys sorted.
	if d != m.Dump() {
		t.Error("Dump is not deterministic")
	}
}

func TestMetricsConcurrentSafe(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Event(Event{Type: EvEval, Cache: "miss"})
				m.Inc("x", 1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Counters["evals"] != 4000 || s.Counters["x"] != 4000 {
		t.Fatalf("lost updates: %+v", s.Counters)
	}
}

func TestMultiFansOutAndDropsNils(t *testing.T) {
	var a, b []string
	oa := Func(func(e Event) { a = append(a, e.Type) })
	ob := Func(func(e Event) { b = append(b, e.Type) })
	if got := Multi(nil, nil); got != nil {
		t.Fatalf("Multi(nil, nil) = %v, want nil", got)
	}
	if got := Multi(nil, oa); got == nil {
		t.Fatal("Multi(nil, fn) = nil")
	}
	m := Multi(oa, nil, ob)
	m.Event(Event{Type: EvEval})
	m.Event(Event{Type: EvRetry})
	if len(a) != 2 || len(b) != 2 || a[0] != EvEval || b[1] != EvRetry {
		t.Fatalf("fan-out wrong: a=%v b=%v", a, b)
	}
}

func TestExplainRendersWinnerAndMoves(t *testing.T) {
	x := NewExplain()
	// Two sweep configs; the second (rank 2 in sweep order) produced the
	// binding that became the rank-1 seed.
	x.Event(Event{Type: EvBInitChoice, LPR: 14, Op: "n1", Choices: []ClusterCost{
		{Cluster: 0, FUCost: 1, ICost: 2.2}, {Cluster: 1, Chosen: true},
	}})
	x.Event(Event{Type: EvBInitChoice, LPR: 15, Op: "n1", Choices: []ClusterCost{
		{Cluster: 0, Chosen: true}, {Cluster: 1, TrCost: 1, ICost: 1.1},
	}})
	x.Event(Event{Type: EvSweepConfig, LPR: 14, Rank: 1, Key: "aa"})
	x.Event(Event{Type: EvSweepConfig, LPR: 15, Rank: 2, Key: "bb"})
	x.Event(Event{Type: EvSweepSeed, Rank: 1, Key: "bb", L: 15, M: 3, QU: []int{15, 2, 1}})
	x.Event(Event{Type: EvSweepSeed, Rank: 2, Key: "aa", L: 16, M: 2})
	x.Event(Event{Type: EvIterAccept, Pass: "qu", Round: 2, Verdict: "better",
		L: 14, M: 3, Before: []int{15, 2, 1}, After: []int{14, 2, 2}, Key: "cc"})
	x.Event(Event{Type: EvIterStop, Pass: "qu", Round: 3, Verdict: "exhausted"})

	out := x.Render()
	for _, want := range []string{
		"L_PR=15 forward (key bb)",
		"c0* fu=0 bus=0 tr=0 icost=0.00",
		"c1  fu=0 bus=0 tr=1 icost=1.10",
		"rank 1: L=15 M=3 Q_U=[15 2 1] key=bb",
		"qu round 2 [better]: L=14 M=3  [15 2 1] -> [14 2 2]  key=cc",
		"qu pass ended after round 3: exhausted",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// The losing config's choices must not appear (LPR=14 breakdown has
	// cluster 1 chosen; winner has cluster 0 chosen).
	if strings.Contains(out, "icost=2.20") {
		t.Errorf("Render leaked losing config's breakdown:\n%s", out)
	}
}

func TestExplainNoSweep(t *testing.T) {
	x := NewExplain()
	x.Event(Event{Type: EvDegraded, Err: "deadline"})
	out := x.Render()
	if !strings.Contains(out, "no B-INIT sweep observed") {
		t.Errorf("missing no-sweep notice:\n%s", out)
	}
	if !strings.Contains(out, "B-ITER accepted no moves") {
		t.Errorf("missing no-moves notice:\n%s", out)
	}
	if !strings.Contains(out, "degraded exit: deadline") {
		t.Errorf("missing degraded line:\n%s", out)
	}
}
