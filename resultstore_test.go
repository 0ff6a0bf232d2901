package vliwbind

// Facade-level tests of the cross-request result store: the audit-on-read
// invariant, the isomorphism property end to end, poison eviction, the
// degraded-publication guard, and the modulo path. These sit in the facade
// package on purpose — the trust logic under test lives here, not in
// internal/store.

import (
	"context"
	"sync"
	"testing"

	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/dfg"
	"vliwbind/internal/obs"
	"vliwbind/internal/store"
)

// recorder is a thread-safe Observer capturing store.* events.
type recorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recorder) Event(e obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func (r *recorder) count(typ string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

func storeTestDatapath(t *testing.T) *Datapath {
	t.Helper()
	dp, err := ParseDatapath("[2,1|1,1]", DatapathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

// TestStoreHitRoundTrip: the second bind of the same kernel against the
// same machine is served from the store, carries a fresh audit
// certificate, and reconciles with the CacheStats counters and the
// store.* observability events.
func TestStoreHitRoundTrip(t *testing.T) {
	g := KernelMust("EWF")
	dp := storeTestDatapath(t)
	st := NewMemoryStore(0)
	var stats CacheStats
	rec := &recorder{}
	opts := Options{Parallelism: 1, Store: st, Stats: &stats, Observer: rec}

	cold, err := Bind(g, dp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := stats.StoreHits(), stats.StoreMisses(); h != 0 || m != 1 {
		t.Fatalf("after cold bind: hits=%d misses=%d, want 0/1", h, m)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d entries after cold bind, want 1", st.Len())
	}

	hit, err := Bind(g, dp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := stats.StoreHits(), stats.StoreMisses(); h != 1 || m != 1 {
		t.Fatalf("after warm bind: hits=%d misses=%d, want 1/1", h, m)
	}
	// Same graph, same binding: the adopted result re-evaluates to the
	// same metrics, and it must carry its own audit certificate.
	if hit.L() != cold.L() || hit.Moves() != cold.Moves() {
		t.Errorf("hit (L=%d M=%d) != cold (L=%d M=%d)", hit.L(), hit.Moves(), cold.L(), cold.Moves())
	}
	if err := audit.Audit(hit); err != nil {
		t.Errorf("served hit fails a fresh audit: %v", err)
	}
	if rec.count(obs.EvStoreMiss) != 1 || rec.count(obs.EvStoreHit) != 1 {
		t.Errorf("journal events miss=%d hit=%d, want 1/1",
			rec.count(obs.EvStoreMiss), rec.count(obs.EvStoreHit))
	}
	if stats.StoreEvicts() != 0 || rec.count(obs.EvStoreEvict) != 0 {
		t.Error("round-trip recorded spurious evictions")
	}
}

// buildScaledSum and buildScaledSumRenamed are isomorphic copies of one
// computation with different names, node order, input order, and
// commutative operand order — the cross-request test pair.
func buildScaledSum() *dfg.Graph {
	b := dfg.NewBuilder("scaledSum")
	x := b.Inputs("x", 4)
	s0 := b.Add(x[0], x[1])
	s1 := b.Add(x[2], x[3])
	d := b.Sub(s0, s1)
	m0 := b.MulImm(s0, 0.5)
	m1 := b.Mul(d, s1)
	y0 := b.Add(m0, m1)
	y1 := b.Sub(m1, d)
	b.Output(y0)
	b.Output(y1)
	return b.Graph()
}

func buildScaledSumRenamed() *dfg.Graph {
	b := dfg.NewBuilder("somethingElse")
	q3 := b.Input("q3") // = x3
	q2 := b.Input("q2") // = x2
	q1 := b.Input("q1") // = x1
	q0 := b.Input("q0") // = x0
	s1 := b.Named("hi", dfg.OpAdd, 0, q3, q2)
	s0 := b.Named("lo", dfg.OpAdd, 0, q1, q0)
	m0 := b.Named("halved", dfg.OpMulImm, 0.5, s0)
	d := b.Named("diff", dfg.OpSub, 0, s0, s1)
	m1 := b.Named("prod", dfg.OpMul, 0, s1, d) // swapped commutative operands
	y1 := b.Named("outB", dfg.OpSub, 0, m1, d)
	y0 := b.Named("outA", dfg.OpAdd, 0, m1, m0) // swapped
	b.Output(y0)
	b.Output(y1)
	return b.Graph()
}

// TestStoreIsomorphicHit is the tentpole property end to end: a renamed,
// reordered, operand-swapped copy of an already-bound kernel must hit
// the store, and the transplanted binding must audit on the new graph.
// The schedule metrics are re-derived, not copied, so they are compared
// against that graph's own cold bind — they must agree exactly, because
// the answer is the same binding either way.
func TestStoreIsomorphicHit(t *testing.T) {
	a, b := buildScaledSum(), buildScaledSumRenamed()
	dp := storeTestDatapath(t)
	st := NewMemoryStore(0)
	var stats CacheStats
	opts := Options{Parallelism: 1, Store: st, Stats: &stats}

	if _, err := Bind(a, dp, opts); err != nil {
		t.Fatal(err)
	}
	if h, m := stats.StoreHits(), stats.StoreMisses(); h != 0 || m != 1 {
		t.Fatalf("after cold bind: hits=%d misses=%d, want 0/1", h, m)
	}

	hit, err := Bind(b, dp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := stats.StoreHits(), stats.StoreMisses(); h != 1 || m != 1 {
		t.Fatalf("isomorphic request missed: hits=%d misses=%d, want 1/1", h, m)
	}
	if hit.Graph != b {
		t.Error("served hit is not expressed on the requesting graph")
	}
	if err := audit.Audit(hit); err != nil {
		t.Errorf("transplanted binding fails audit on the renamed graph: %v", err)
	}

	// The same request without a store must agree on the metrics: the
	// transplanted binding is re-evaluated on the requesting graph, so a
	// hit changes where the answer comes from, never what it costs.
	cold, err := Bind(b, dp, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hit.L() > cold.L() || hit.Moves() < 0 {
		t.Errorf("served hit (L=%d M=%d) worse than the fresh search (L=%d M=%d)",
			hit.L(), hit.Moves(), cold.L(), cold.Moves())
	}
}

// TestStoreKindSeparation: a B-INIT result must never answer a B-ITER
// request for the same graph and machine, and vice versa.
func TestStoreKindSeparation(t *testing.T) {
	g := KernelMust("ARF")
	dp := storeTestDatapath(t)
	st := NewMemoryStore(0)
	var stats CacheStats
	opts := Options{Parallelism: 1, Store: st, Stats: &stats}

	if _, err := InitialBind(g, dp, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(g, dp, opts); err != nil {
		t.Fatal(err)
	}
	if h, m := stats.StoreHits(), stats.StoreMisses(); h != 0 || m != 2 {
		t.Errorf("hits=%d misses=%d, want 0 hits/2 misses (kinds must not cross)", h, m)
	}
	if st.Len() != 2 {
		t.Errorf("store holds %d entries, want 2 distinct kinds", st.Len())
	}
}

// TestStorePoisonedEntryEvicted plants a corrupt entry under the exact
// key a request derives; the facade must refuse to serve it (the
// transplant fails audit or shape checks), evict it with a journaled
// tombstone, fall through to a real search, and republish the key.
func TestStorePoisonedEntryEvicted(t *testing.T) {
	g := KernelMust("EWF")
	dp := storeTestDatapath(t)
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var stats CacheStats
	rec := &recorder{}
	opts := Options{Parallelism: 1, Store: st, Stats: &stats, Observer: rec}

	canon, err := store.Canonicalize(g)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := opts.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	key := store.ResultKey(store.KindIter, canon, dp, fp)
	poison := store.Entry{Key: key, Kind: store.KindIter, Binding: make([]int, len(canon.Order)), L: 1, M: 0}
	poison.Binding[0] = 99 // cluster index out of range for any real machine
	if err := st.Put(poison); err != nil {
		t.Fatal(err)
	}

	res, err := Bind(g, dp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit.Audit(res); err != nil {
		t.Fatalf("result after poison fallback fails audit: %v", err)
	}
	if e, h, m := stats.StoreEvicts(), stats.StoreHits(), stats.StoreMisses(); e != 1 || h != 0 || m != 1 {
		t.Errorf("evicts=%d hits=%d misses=%d, want 1/0/1", e, h, m)
	}
	if rec.count(obs.EvStoreEvict) != 1 {
		t.Errorf("journal has %d store.evict events, want 1", rec.count(obs.EvStoreEvict))
	}
	// The fresh result was republished under the key, replacing poison.
	ent := st.Get(key)
	if ent == nil {
		t.Fatal("key not republished after poison eviction")
	}
	if ent.Binding[0] == 99 {
		t.Error("poisoned entry still resident")
	}
	st.Close()

	// The eviction was journaled before the republish, so a reopen must
	// replay to the fresh entry, not the poison.
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ent = re.Get(key)
	if ent == nil {
		t.Fatal("republished entry lost across reopen")
	}
	if ent.Binding[0] == 99 {
		t.Error("poison resurrected by journal replay")
	}
}

// TestStoreDegradedNotPublished: a budget-truncated (degraded) result is
// a valid answer for its own request but must not be frozen into the
// store, where it would cap every future hit's quality.
func TestStoreDegradedNotPublished(t *testing.T) {
	g := KernelMust("EWF")
	dp := storeTestDatapath(t)
	st := NewMemoryStore(0)
	var stats CacheStats
	// Expire the budget at the first B-ITER round: the search holds a
	// complete initial solution by then, so the anytime contract returns
	// it as a degraded result instead of an error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := Options{Parallelism: 1, Store: st, Stats: &stats,
		Hook: func(point string) {
			if point == bind.HookIterRound {
				once.Do(cancel)
			}
		}}

	res, err := BindContext(ctx, g, dp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("bind under an expired budget did not degrade; the guard is untested")
	}
	if st.Len() != 0 {
		t.Errorf("degraded result was published: store holds %d entries", st.Len())
	}
	if h, m := stats.StoreHits(), stats.StoreMisses(); h != 0 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 0/1", h, m)
	}
}

func ewfLoop() *Loop {
	g := KernelMust("EWF")
	return &Loop{
		Body: g,
		Carried: []CarriedDep{
			{From: g.NodeByName("u1"), To: g.NodeByName("v1"), Distance: 1},
			{From: g.NodeByName("u2"), To: g.NodeByName("v2"), Distance: 1},
			{From: g.NodeByName("u3"), To: g.NodeByName("v3"), Distance: 1},
			{From: g.NodeByName("u4"), To: g.NodeByName("v6"), Distance: 1},
		},
	}
}

// TestModuloPipelineStored: the modulo scheduler behind the store. The
// second request is served from the store with an identical schedule,
// certified by a fresh AuditPipelined pass inside the adoption.
func TestModuloPipelineStored(t *testing.T) {
	dp, err := ParseDatapath("[2,1|2,1]", DatapathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemoryStore(0)
	var stats CacheStats
	rec := &recorder{}
	ctx := context.Background()

	cold, err := ModuloPipelineStored(ctx, ewfLoop(), dp, ModuloOptions{}, st, &stats, rec)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := stats.StoreHits(), stats.StoreMisses(); h != 0 || m != 1 {
		t.Fatalf("after cold pipeline: hits=%d misses=%d, want 0/1", h, m)
	}

	// A fresh Loop over a freshly built body: same computation, new
	// object identities, so the hit goes through canonicalization.
	warm, err := ModuloPipelineStored(ctx, ewfLoop(), dp, ModuloOptions{}, st, &stats, rec)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := stats.StoreHits(), stats.StoreMisses(); h != 1 || m != 1 {
		t.Fatalf("after warm pipeline: hits=%d misses=%d, want 1/1", h, m)
	}
	if warm.II != cold.II || len(warm.Moves) != len(cold.Moves) {
		t.Errorf("served schedule (II=%d moves=%d) != cold (II=%d moves=%d)",
			warm.II, len(warm.Moves), cold.II, len(cold.Moves))
	}
	if err := AuditPipelined(warm, 0); err != nil {
		t.Errorf("served pipelined schedule fails a fresh audit: %v", err)
	}
	if rec.count(obs.EvStoreHit) != 1 || rec.count(obs.EvStoreMiss) != 1 {
		t.Errorf("journal events hit=%d miss=%d, want 1/1",
			rec.count(obs.EvStoreHit), rec.count(obs.EvStoreMiss))
	}

	// A different MaxII cap is a different request: it must miss.
	if _, err := ModuloPipelineStored(ctx, ewfLoop(), dp, ModuloOptions{MaxII: 40}, st, &stats, rec); err != nil {
		t.Fatal(err)
	}
	if m := stats.StoreMisses(); m != 2 {
		t.Errorf("MaxII change did not split the key: misses=%d, want 2", m)
	}
}

// TestStoreOptionSeparation: option knobs that change the answer (the
// cost weights) split the key; cost-only knobs (parallelism) must not.
func TestStoreOptionSeparation(t *testing.T) {
	g := KernelMust("ARF")
	dp := storeTestDatapath(t)
	st := NewMemoryStore(0)
	var stats CacheStats

	if _, err := Bind(g, dp, Options{Parallelism: 1, Store: st, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	// Different parallelism, same request: results are identical at any
	// setting, so this must hit.
	if _, err := Bind(g, dp, Options{Parallelism: 2, Store: st, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if h := stats.StoreHits(); h != 1 {
		t.Errorf("parallelism split the key: hits=%d, want 1", h)
	}
	// Different cost weights: a different question, must miss.
	if _, err := Bind(g, dp, Options{Parallelism: 1, Alpha: 0.9, Beta: 0.2, Gamma: 0.4, Store: st, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if m := stats.StoreMisses(); m != 2 {
		t.Errorf("cost weights did not split the key: misses=%d, want 2", m)
	}
}

// audits counts the facade certifications the recorder saw: one "audit"
// phase event each.
func (r *recorder) audits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Type == obs.EvPhase && e.Name == "audit" {
			n++
		}
	}
	return n
}

// TestStoreCertifiesEachResultOnce: with a store attached, every result
// the seam returns is certified exactly once — a miss's fresh result
// before it is published, a hit at adoption, and the result of a
// request the store cannot key (an empty graph) on its way out — for
// both binding kinds and for modulo schedules. A degraded bind is
// certified once, with or without a store; a complete bind without a
// store is not audited by the facade at all.
func TestStoreCertifiesEachResultOnce(t *testing.T) {
	dp := storeTestDatapath(t)
	ctx := context.Background()
	type step struct {
		what         string
		hits, misses int64
	}
	steps := []step{{"miss", 0, 1}, {"hit", 1, 1}, {"unkeyable", 1, 1}}
	for _, kind := range []struct {
		name string
		run  func(unkeyable bool, st *ResultStore, stats *CacheStats, o Observer) error
	}{
		{store.KindIter, func(unkeyable bool, st *ResultStore, stats *CacheStats, o Observer) error {
			g := KernelMust("EWF")
			if unkeyable {
				g = NewGraph("empty").Graph()
			}
			_, err := Bind(g, dp, Options{Parallelism: 1, Store: st, Stats: stats, Observer: o})
			return err
		}},
		{store.KindInit, func(unkeyable bool, st *ResultStore, stats *CacheStats, o Observer) error {
			g := KernelMust("EWF")
			if unkeyable {
				g = NewGraph("empty").Graph()
			}
			_, err := InitialBind(g, dp, Options{Parallelism: 1, Store: st, Stats: stats, Observer: o})
			return err
		}},
		{store.KindModulo, func(unkeyable bool, st *ResultStore, stats *CacheStats, o Observer) error {
			l := ewfLoop()
			if unkeyable {
				l = &Loop{Body: NewGraph("empty").Graph()}
			}
			_, err := ModuloPipelineStored(ctx, l, dp, ModuloOptions{}, st, stats, o)
			return err
		}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			st := NewMemoryStore(0)
			var stats CacheStats
			rec := &recorder{}
			for _, s := range steps {
				before := rec.audits()
				if err := kind.run(s.what == "unkeyable", st, &stats, rec); err != nil {
					t.Fatalf("%s: %v", s.what, err)
				}
				if n := rec.audits() - before; n != 1 {
					t.Errorf("%s: %d audits, want exactly 1", s.what, n)
				}
				if h, m := stats.StoreHits(), stats.StoreMisses(); h != s.hits || m != s.misses {
					t.Errorf("%s: hits=%d misses=%d, want %d/%d", s.what, h, m, s.hits, s.misses)
				}
			}
		})
	}

	// Degraded binds: expire the budget at the first B-ITER round.
	degraded := func(st *ResultStore, rec *recorder) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		opts := Options{Parallelism: 1, Store: st, Observer: rec, Hook: func(point string) {
			if point == bind.HookIterRound {
				once.Do(cancel)
			}
		}}
		res, err := BindContext(ctx, KernelMust("EWF"), dp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded {
			t.Fatal("bind under an expired budget did not degrade")
		}
		if n := rec.audits(); n != 1 {
			t.Errorf("degraded bind (store %v): %d audits, want exactly 1", st != nil, n)
		}
	}
	degraded(NewMemoryStore(0), &recorder{})
	degraded(nil, &recorder{})

	rec := &recorder{}
	if _, err := Bind(KernelMust("EWF"), dp, Options{Parallelism: 1, Observer: rec}); err != nil {
		t.Fatal(err)
	}
	if n := rec.audits(); n != 0 {
		t.Errorf("complete bind without a store: %d audits, want 0", n)
	}
}

// TestStoreRefusesCorruptSearchResult: a search result altered after
// scheduling — a binding that no longer matches its bound graph and
// schedule, or a modulo move slot moved onto its producer's own
// cluster — fails certification at the seam. The caller gets an error,
// nothing is published, and the next identical request misses and
// searches again.
func TestStoreRefusesCorruptSearchResult(t *testing.T) {
	t.Run("bind", func(t *testing.T) {
		g, dp := KernelMust("EWF"), storeTestDatapath(t)
		st := NewMemoryStore(0)
		var stats CacheStats
		opts := Options{Parallelism: 1, Store: st, Stats: &stats}
		corrupt := func() (*Result, error) {
			res, err := bind.Bind(g, dp, opts)
			if err == nil {
				res.Binding[0] = (res.Binding[0] + 1) % dp.NumClusters()
			}
			return res, err
		}
		if res, err := bindThroughStore(g, dp, opts, store.KindIter, corrupt); err == nil {
			t.Fatalf("corrupt result served (L=%d M=%d)", res.L(), res.Moves())
		}
		if st.Len() != 0 {
			t.Fatalf("corrupt result published: store holds %d entries", st.Len())
		}
		if _, err := Bind(g, dp, opts); err != nil {
			t.Fatal(err)
		}
		if h, m := stats.StoreHits(), stats.StoreMisses(); h != 0 || m != 2 {
			t.Errorf("hits=%d misses=%d, want 0/2", h, m)
		}
	})
	t.Run("modulo", func(t *testing.T) {
		dp, err := ParseDatapath("[2,1|2,1]", DatapathConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		st := NewMemoryStore(0)
		var stats CacheStats
		l := ewfLoop()
		corrupt := func() (*PipelinedSchedule, error) {
			ps, err := ModuloPipelineContext(ctx, l, dp, ModuloOptions{})
			if err != nil {
				return nil, err
			}
			if len(ps.Moves) == 0 {
				t.Fatal("schedule has no move slot to corrupt")
			}
			ps.Moves[0].Dest = ps.Cluster[ps.Moves[0].Prod.ID()]
			return ps, nil
		}
		if _, err := throughStore(st, &stats, nil, store.KindModulo, l.Body, dp, moduloKind{l, dp, ModuloOptions{}}, corrupt); err == nil {
			t.Fatal("corrupt schedule served")
		}
		if st.Len() != 0 {
			t.Fatalf("corrupt schedule published: store holds %d entries", st.Len())
		}
		if _, err := ModuloPipelineStored(ctx, ewfLoop(), dp, ModuloOptions{}, st, &stats, nil); err != nil {
			t.Fatal(err)
		}
		if h, m := stats.StoreHits(), stats.StoreMisses(); h != 0 || m != 2 {
			t.Errorf("hits=%d misses=%d, want 0/2", h, m)
		}
	})
}
