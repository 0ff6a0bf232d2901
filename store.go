package vliwbind

// The cross-request result store's read and write paths. The store
// itself (internal/store) is deliberately dumb — content-addressed
// bytes with an LRU and a journal — and the trust logic all lives here,
// in the facade, because it needs both sides of the audit dependency:
// internal/audit certifies bind.Results, so the bind package cannot
// consult it, but this package sits above both. One seam, throughStore,
// certifies every result it returns or publishes exactly once, so a
// corrupt journal, a poisoned entry, or a store bug can cost at worst a
// cache miss, and a faulty search an error, never a wrong answer.
//
// Stored entries are expressed in canonical positions (see
// internal/store.Canonicalize), which is what makes the store
// cross-request: a renamed, reordered, but isomorphic kernel computes
// the same canonical form, finds the entry, and transplants the binding
// through its own Order permutation. The entry's recorded L and M are
// advisory only — the list scheduler breaks ties on node IDs, so an
// isomorphic graph may legitimately re-evaluate to slightly different
// numbers — and adoption always re-evaluates and re-audits rather than
// trusting them.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/modulo"
	"vliwbind/internal/obs"
	"vliwbind/internal/store"
)

// ResultStore is the concurrency-safe cross-request result store:
// hand one to Options.Store to serve repeated (isomorphic) requests
// from audited cache hits instead of full searches. Safe for concurrent
// use by any number of binds; a nil *ResultStore is inert.
type ResultStore = store.Store

// StoreStats reports what opening a journal-backed store found on disk.
type StoreStats = store.OpenStats

// OpenStore opens (creating if needed) a journal-backed result store in
// directory dir. Previously journaled results are replayed into memory;
// corrupt or truncated journal lines are skipped, duplicate keys are
// last-write-wins, and tombstoned entries stay gone. Close it when done
// to flush the journal.
func OpenStore(dir string) (*ResultStore, error) { return store.Open(dir, 0) }

// NewMemoryStore creates a memory-only result store holding at most max
// entries (a default capacity when max <= 0). It serves the same
// audited hits as a journal-backed store but forgets everything when
// the process ends.
func NewMemoryStore(max int) *ResultStore { return store.NewMemory(max) }

// storedKind is the kind-specific half of the store seam: the key's
// extra bytes (an error bypasses the store), adoption of an entry on the
// requesting graph (a non-empty reason evicts it), the entry encoding in
// canonical positions, the audit, and a result's (L, M) and degradation.
type storedKind[R any] interface {
	extra(canon *store.Canon) ([]byte, error)
	adopt(canon *store.Canon, ent *store.Entry) (R, string)
	encode(canon *store.Canon, r R) store.Entry
	audit(r R) error
	summary(r R) (l, m int, degraded bool)
}

// throughStore is the store seam under every store-backed facade call:
// serve a certified hit, or search, certify the result, and publish it
// when complete. A fresh result that fails certification is an error,
// never published or returned; any other store trouble degrades to the
// search that would have run without a store.
func throughStore[R any](st *ResultStore, stats *CacheStats, o Observer, kind string, g *Graph, dp *Datapath,
	k storedKind[R], search func() (R, error)) (R, error) {
	if stats == nil {
		stats = new(CacheStats) // counts nobody reads: no nil checks below
	}
	var zero R
	audited := func(r R) error { return certify(o, g.Name(), func() error { return k.audit(r) }) }
	fresh := func() (R, error) {
		r, err := search()
		if err == nil {
			err = audited(r)
		}
		if err != nil {
			return zero, err
		}
		return r, nil
	}
	canon, err := store.Canonicalize(g)
	if err != nil {
		return fresh() // nil, bound or empty graph: let the search report it
	}
	extra, err := k.extra(canon)
	if err != nil {
		return fresh() // invalid options or loop: ditto
	}
	key := store.ResultKey(kind, canon, dp, extra)
	if ent := st.Get(key); ent != nil {
		r, reason := zero, ""
		if ent.Kind != kind {
			reason = fmt.Sprintf("stored kind %q, want %q", ent.Kind, kind)
		} else if r, reason = k.adopt(canon, ent); reason == "" {
			if err := audited(r); err != nil {
				reason = "audit failed: " + err.Error()
			}
		}
		if reason == "" {
			stats.RecordStoreHit()
			l, m, _ := k.summary(r)
			emit(o, obs.Event{Type: obs.EvStoreHit, Kernel: g.Name(), Key: key.String(), L: l, M: m})
			return r, nil
		}
		// The entry is poison for this key and must never be served
		// again, so the eviction is journaled too; a journal error cannot
		// make the answer wrong (a fresh search follows either way).
		st.Evict(key)
		stats.RecordStoreEvict()
		emit(o, obs.Event{Type: obs.EvStoreEvict, Kernel: g.Name(), Key: key.String(), Err: reason})
	}
	stats.RecordStoreMiss()
	emit(o, obs.Event{Type: obs.EvStoreMiss, Kernel: g.Name(), Key: key.String()})
	r, err := fresh()
	if err != nil {
		return zero, err
	}
	// A degraded result is valid but not the search's full answer;
	// publishing it would freeze an interrupted search's quality into
	// every future hit.
	if _, _, degraded := k.summary(r); !degraded {
		ent := k.encode(canon, r)
		ent.Key, ent.Kind = key, kind
		st.Put(ent)
	}
	return r, nil
}

// certify runs one facade certification. With an observer attached it
// reports the audit as a phase event named "audit" with its duration,
// which obs.Metrics folds into its phases.
func certify(o Observer, kernel string, run func() error) error {
	t0 := time.Now()
	err := run()
	emit(o, obs.Event{Type: obs.EvPhase, Kernel: kernel, Name: "audit", DurNs: time.Since(t0).Nanoseconds()})
	return err
}

// emit hands an event to the observer when one is attached.
func emit(o Observer, e obs.Event) {
	if o != nil {
		o.Event(e)
	}
}

// bindThroughStore serves a facade binder through the store seam when
// Options.Store is set; without one, complete results pass through and
// degraded ones are audited.
func bindThroughStore(g *Graph, dp *Datapath, opts Options, kind string, search func() (*Result, error)) (*Result, error) {
	if opts.Store == nil {
		res, err := search()
		return auditDegraded(opts.Observer, res, err)
	}
	return throughStore(opts.Store, opts.Stats, opts.Observer, kind, g, dp, bindKind{g, dp, opts}, search)
}

// bindKind stores B-INIT and B-ITER bindings, keyed by the options
// fingerprint. Adoption re-evaluates the transplanted binding, deriving
// the bound graph and list schedule for the requesting graph.
type bindKind struct {
	g    *Graph
	dp   *Datapath
	opts Options
}

func (k bindKind) extra(*store.Canon) ([]byte, error) { return k.opts.Fingerprint() }

func (k bindKind) adopt(canon *store.Canon, ent *store.Entry) (*Result, string) {
	if len(ent.Binding) != len(canon.Order) {
		return nil, fmt.Sprintf("stored binding has %d ops, graph has %d", len(ent.Binding), len(canon.Order))
	}
	bn := make([]int, len(canon.Order))
	for i, id := range canon.Order {
		c := ent.Binding[i]
		if c < 0 || c >= k.dp.NumClusters() {
			return nil, fmt.Sprintf("stored cluster %d out of range [0,%d)", c, k.dp.NumClusters())
		}
		bn[id] = c
	}
	res, err := bind.Evaluate(k.g, k.dp, bn)
	if err != nil {
		return nil, "re-evaluation failed: " + err.Error()
	}
	return res, ""
}

func (bindKind) encode(canon *store.Canon, res *Result) store.Entry {
	ent := store.Entry{L: res.L(), M: res.Moves(), Binding: make([]int, len(canon.Order))}
	for i, id := range canon.Order {
		ent.Binding[i] = res.Binding[id]
	}
	return ent
}

func (bindKind) audit(res *Result) error { return audit.Audit(res) }

func (bindKind) summary(res *Result) (int, int, bool) { return res.L(), res.Moves(), res.Degraded }

// ModuloPipelineStored is ModuloPipelineContext behind the result
// store: an isomorphic loop body with the same carried-dependence
// structure, machine, and MaxII is served from the store after passing
// a fresh AuditPipelined certificate, and a fresh schedule is certified
// the same way before it is published for the next request. A nil
// store, stats, or observer disables that aspect; the schedule returned
// is identical either way.
func ModuloPipelineStored(ctx context.Context, l *Loop, dp *Datapath, opts ModuloOptions,
	st *ResultStore, stats *CacheStats, observer Observer) (*PipelinedSchedule, error) {
	search := func() (*PipelinedSchedule, error) {
		return modulo.PipelineContext(ctx, l, dp, opts)
	}
	if st == nil {
		return search()
	}
	return throughStore(st, stats, observer, store.KindModulo, l.Body, dp, moduloKind{l, dp, opts}, search)
}

// moduloKind stores pipelined schedules, keyed by the II cap and the
// carried dependences. Adoption rebuilds the schedule for the requesting
// loop; its AuditPipelined pass expands enough concrete iterations to
// cover the steady state.
type moduloKind struct {
	l    *Loop
	dp   *Datapath
	opts ModuloOptions
}

// extra fingerprints what the body graph does not capture: the II cap
// and the carried dependences in canonical positions, sorted so
// declaration order never splits keys. A malformed loop bypasses the
// store, and the search reports it.
func (k moduloKind) extra(canon *store.Canon) ([]byte, error) {
	if err := k.l.Validate(); err != nil {
		return nil, err
	}
	deps := make([][3]int, 0, len(k.l.Carried))
	for _, cd := range k.l.Carried {
		deps = append(deps, [3]int{int(canon.Pos[cd.From.ID()]), int(canon.Pos[cd.To.ID()]), cd.Distance})
	}
	slices.SortFunc(deps, func(a, b [3]int) int { return slices.Compare(a[:], b[:]) })
	b := fmt.Appendf(nil, "modopts/v1 maxii=%d", k.opts.MaxII)
	for _, d := range deps {
		b = fmt.Appendf(b, " %d>%d@%d", d[0], d[1], d[2])
	}
	return b, nil
}

func (k moduloKind) adopt(canon *store.Canon, ent *store.Entry) (*PipelinedSchedule, string) {
	n := len(canon.Order)
	if len(ent.Start) != n || len(ent.Cluster) != n {
		return nil, fmt.Sprintf("stored schedule has %d/%d ops, body has %d", len(ent.Start), len(ent.Cluster), n)
	}
	if ent.II < 1 {
		return nil, fmt.Sprintf("stored II %d out of range", ent.II)
	}
	ps := &PipelinedSchedule{Loop: k.l, Datapath: k.dp, II: ent.II,
		Start: make([]int, n), Cluster: make([]int, n)}
	for i, id := range canon.Order {
		if s := ent.Start[i]; s < 0 {
			return nil, fmt.Sprintf("stored start cycle %d out of range", s)
		}
		if c := ent.Cluster[i]; c < 0 || c >= k.dp.NumClusters() {
			return nil, fmt.Sprintf("stored cluster %d out of range [0,%d)", c, k.dp.NumClusters())
		}
		ps.Start[id] = ent.Start[i]
		ps.Cluster[id] = ent.Cluster[i]
	}
	for _, m := range ent.Moves {
		p, dest, cycle := m[0], m[1], m[2]
		if p < 0 || p >= n {
			return nil, fmt.Sprintf("stored move producer %d out of range", p)
		}
		ps.Moves = append(ps.Moves, modulo.MoveSlot{Prod: k.l.Body.Node(int(canon.Order[p])), Dest: dest, Cycle: cycle})
	}
	return ps, ""
}

func (moduloKind) encode(canon *store.Canon, ps *PipelinedSchedule) store.Entry {
	n := len(canon.Order)
	ent := store.Entry{II: ps.II, Start: make([]int, n), Cluster: make([]int, n)}
	for i, id := range canon.Order {
		ent.Start[i] = ps.Start[id]
		ent.Cluster[i] = ps.Cluster[id]
	}
	for _, m := range ps.Moves {
		ent.Moves = append(ent.Moves, [3]int{int(canon.Pos[m.Prod.ID()]), m.Dest, m.Cycle})
	}
	return ent
}

func (moduloKind) audit(ps *PipelinedSchedule) error { return audit.AuditPipelined(ps, 0) }

func (moduloKind) summary(ps *PipelinedSchedule) (int, int, bool) { return ps.II, len(ps.Moves), false }
