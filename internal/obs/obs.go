// Package obs is the observability layer of the binding stack: a
// zero-dependency (standard library only) event model with three sinks —
// a structured JSONL journal, per-phase monotonic metrics, and an
// explain-mode collector that attributes each B-INIT decision to its
// icost terms and each B-ITER move to its quality-vector delta.
//
// The layer is driven entirely through observation seams: the engine in
// internal/bind emits an Event at each of its named hook points
// (Options.Observer), and the CLIs add their own phase events on top.
// Observation never alters control flow, so results are bit-identical
// with every sink attached or with all of them absent; sinks must be
// safe for concurrent use because events fire from worker-pool
// goroutines.
//
// The event schema is documented in DESIGN.md §11; the journal writes
// one JSON object per line in the field order defined by Event.
package obs

// Event types, one constant per record kind the engine and the CLIs
// emit. A sink switches on Event.Type; unknown types must be ignored,
// so new emitters never break old sinks.
const (
	// EvSweepConfig records one B-INIT driver configuration — a greedy
	// (L_PR, direction) pass — with the binding key it produced.
	EvSweepConfig = "sweep.config"
	// EvSweepSeed records one ranked phase-one seed kept for
	// improvement: rank, binding key, and (L, M, Q_U).
	EvSweepSeed = "sweep.seed"
	// EvBInitChoice records one greedy B-INIT decision: the operation,
	// the sweep configuration, and the per-cluster fucost/buscost/trcost
	// breakdown of Equation 1, with the chosen cluster marked.
	EvBInitChoice = "binit.choice"
	// EvIterRound fires at the top of every B-ITER perturbation round
	// with the pass (qu/qm), round index, and candidate count.
	EvIterRound = "iter.round"
	// EvIterAccept records an accepted B-ITER move: the winning binding
	// key and the before/after quality vectors.
	EvIterAccept = "iter.accept"
	// EvIterStop records why an improvement pass ended (verdict:
	// exhausted, worse, plateau-limit, max-iterations, cancelled).
	EvIterStop = "iter.stop"
	// EvEval records one memoized candidate evaluation: binding key,
	// (L, M), the Q_U vector, and the cache verdict (hit, miss, or
	// empty when the cache is inactive at Parallelism 1).
	EvEval = "eval"
	// EvPoolBatch aggregates one worker-pool batch: task count plus
	// total queue (submit→start) and execute nanoseconds.
	EvPoolBatch = "pool.batch"
	// EvRetry records one transient-failure retry of an evaluation task.
	EvRetry = "task.retry"
	// EvDegraded records a degraded exit: the search was cut short and
	// the best-so-far solution is being returned.
	EvDegraded = "degraded"
	// EvPhase is a generic named phase timing, emitted by the CLIs and
	// the experiment harness around coarse stages.
	EvPhase = "phase"
	// EvPCCCap records one PCC component-size-cap decomposition with the
	// (L, M) its improved assignment reached.
	EvPCCCap = "pcc.cap"
	// EvAnnealTemp records one simulated-annealing temperature step with
	// the best (L, M) observed so far.
	EvAnnealTemp = "anneal.temp"
	// EvRoutePick records one routing decision of the final schedule:
	// a data transfer's source and destination clusters, its hop count,
	// and the interconnect links the route rides. One event per transfer
	// of the materialized winner, so per-link totals aggregated from the
	// journal reconcile exactly with the schedule's link occupancy.
	EvRoutePick = "route.pick"
	// EvStoreHit records a cross-request store hit served to the caller:
	// the canonical store key plus the adopted result's re-evaluated
	// (L, M). Emitted only after the hit passed a fresh audit — a hit
	// that fails adoption never produces this event.
	EvStoreHit = "store.hit"
	// EvStoreMiss records a store consultation that fell through to a
	// full search (including the search after an evicted poison hit).
	EvStoreMiss = "store.miss"
	// EvStoreEvict records a store entry thrown out on the read path:
	// the hit failed adoption or its fresh audit, with Err naming why.
	EvStoreEvict = "store.evict"
	// EvExplorePoint records one fully evaluated design point of a
	// design-space exploration: the datapath spec (Name), the bound
	// (L, M), and the point's wall time (DurNs).
	EvExplorePoint = "explore.point"
	// EvExplorePrune records one design point eliminated before binding:
	// its spec (Name), the optimistic latency lower bound that was
	// dominated (L), and the already-bound datapath that dominated it
	// (By).
	EvExplorePrune = "explore.prune"
)

// ClusterCost is one cluster's cost breakdown inside a B-INIT choice:
// the raw fucost/buscost/trcost terms and the weighted icost
// (α·fucost·dii + β·buscost·dii(move) + γ·trcost·lat(move)) they sum to.
type ClusterCost struct {
	Cluster int     `json:"cluster"`
	FUCost  int     `json:"fucost"`
	BusCost int     `json:"buscost"`
	TrCost  int     `json:"trcost"`
	ICost   float64 `json:"icost"`
	Chosen  bool    `json:"chosen,omitempty"`
}

// Event is one observability record. It is a single flat struct rather
// than a type per event so the journal stays one JSON shape per line
// and sinks never type-switch on Go types; unused fields are omitted
// from the encoding. Seq and TNs are assigned by the Journal sink;
// emitters leave them zero.
type Event struct {
	// Seq is the journal-assigned sequence number (1-based).
	Seq int64 `json:"seq,omitempty"`
	// TNs is the journal-assigned monotonic timestamp, nanoseconds
	// since the journal was created.
	TNs int64 `json:"t_ns,omitempty"`
	// Type is one of the Ev* constants.
	Type string `json:"type"`
	// Phase is the engine phase the event belongs to (binit.sweep,
	// binit.eval, biter.qu, biter.qm, …).
	Phase string `json:"phase,omitempty"`
	// Kernel names the graph being bound.
	Kernel string `json:"kernel,omitempty"`

	// LPR and Reverse identify a B-INIT sweep configuration.
	LPR     int  `json:"lpr,omitempty"`
	Reverse bool `json:"reverse,omitempty"`

	// Key is the hex-encoded binding key of a candidate; L, M, QU carry
	// its evaluation record. Cache is "hit", "miss", or empty when the
	// memo cache is inactive.
	Key   string `json:"key,omitempty"`
	L     int    `json:"l,omitempty"`
	M     int    `json:"m,omitempty"`
	QU    []int  `json:"qu,omitempty"`
	Cache string `json:"cache,omitempty"`

	// Pass, Round, Candidates, Before, After, Verdict and Rank describe
	// the B-ITER improvement loop and the sweep ranking.
	Pass       string `json:"pass,omitempty"`
	Round      int    `json:"round,omitempty"`
	Candidates int    `json:"candidates,omitempty"`
	Before     []int  `json:"before,omitempty"`
	After      []int  `json:"after,omitempty"`
	Verdict    string `json:"verdict,omitempty"`
	Rank       int    `json:"rank,omitempty"`

	// Cap is the component-size cap of a pcc.cap event.
	Cap int `json:"cap,omitempty"`

	// Src, Dst, Hops and Links describe a route.pick event: the transfer's
	// endpoint clusters, the route's hop count, and the link ids it rides.
	// Src and Dst rely on the JSON zero default (cluster 0 omits cleanly).
	Src   int   `json:"src,omitempty"`
	Dst   int   `json:"dst,omitempty"`
	Hops  int   `json:"hops,omitempty"`
	Links []int `json:"links,omitempty"`

	// Op and Choices carry a B-INIT per-operation cost breakdown.
	Op      string        `json:"op,omitempty"`
	Choices []ClusterCost `json:"choices,omitempty"`

	// Tasks, QueueNs and ExecNs aggregate one worker-pool batch.
	Tasks   int   `json:"tasks,omitempty"`
	QueueNs int64 `json:"queue_ns,omitempty"`
	ExecNs  int64 `json:"exec_ns,omitempty"`

	// Name and DurNs carry generic phase timings; Temp is the annealing
	// temperature of an anneal.temp event; Err describes a degraded
	// exit or a retried failure.
	Name  string  `json:"name,omitempty"`
	DurNs int64   `json:"dur_ns,omitempty"`
	Temp  float64 `json:"temp,omitempty"`
	Err   string  `json:"err,omitempty"`

	// By names the already-bound design point whose achieved objective
	// vector dominated an explore.prune event's candidate.
	By string `json:"by,omitempty"`
}

// Observer consumes events. Implementations must be safe for concurrent
// use: the binding engine emits from its worker-pool goroutines. An
// Observer must never panic and never mutate slices it receives —
// events share immutable engine records.
type Observer interface {
	Event(Event)
}

// Func adapts a plain function to the Observer interface.
type Func func(Event)

// Event implements Observer.
func (f Func) Event(e Event) { f(e) }

// multi fans one event out to several sinks in order.
type multi []Observer

func (m multi) Event(e Event) {
	for _, o := range m {
		o.Event(e)
	}
}

// Multi combines sinks into one Observer, dropping nils. It returns nil
// when no sink remains, so callers can pass the result straight to
// Options.Observer and keep the disabled path allocation-free.
func Multi(obs ...Observer) Observer {
	var kept multi
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}
