package bind_test

// Anytime-contract and fault-isolation tests for the binding stack:
// cancellation at every seam either returns an error wrapping the
// context cause (before the first certified candidate) or a valid
// degraded result no worse than plain B-INIT's; injected panics are
// recovered, retried, and never leak goroutines or corrupt the engine's
// lookup table. Faults are scheduled deterministically via
// internal/faultinject against the engine's named hook points.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"vliwbind/internal/bind"
	"vliwbind/internal/dfg"
	"vliwbind/internal/faultinject"
	"vliwbind/internal/kernels"
	"vliwbind/internal/leakcheck"
	"vliwbind/internal/machine"
	"vliwbind/internal/store"
)

// arfOn builds the ARF kernel and a machine that bind in a few
// milliseconds but still run a multi-config sweep and several B-ITER
// rounds — enough hook traffic for every fault schedule below.
func arfOn(t *testing.T, dpSpec string) (*dfg.Graph, *machine.Datapath) {
	t.Helper()
	k, err := kernels.ByName("ARF")
	if err != nil {
		t.Fatal(err)
	}
	mdp, err := machine.Parse(dpSpec, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return k.Build(), mdp
}

func TestOptionsValidate(t *testing.T) {
	if err := (bind.Options{}).Validate(); err != nil {
		t.Fatalf("zero Options rejected: %v", err)
	}
	// Daemon-relevant combinations that must stay valid: -1 is the
	// documented "disable retries" value, and both nil and properly
	// constructed stores are fine.
	for _, ok := range []struct {
		name string
		opts bind.Options
	}{
		{"retries disabled", bind.Options{TaskRetries: -1}},
		{"memory store", bind.Options{Store: store.NewMemory(0)}},
	} {
		if err := ok.opts.Validate(); err != nil {
			t.Errorf("Validate rejected valid %s config: %v", ok.name, err)
		}
	}
	cases := []struct {
		name string
		opts bind.Options
		want string
	}{
		{"negative parallelism", bind.Options{Parallelism: -2}, "Parallelism"},
		{"negative max iterations", bind.Options{MaxIterations: -1}, "MaxIterations"},
		{"negative seeds", bind.Options{Seeds: -3}, "Seeds"},
		{"negative alpha", bind.Options{Alpha: -1}, "Alpha"},
		{"NaN beta", bind.Options{Beta: math.NaN()}, "Beta"},
		{"infinite gamma", bind.Options{Gamma: math.Inf(1)}, "Gamma"},
		{"task retries below disable", bind.Options{TaskRetries: -2}, "TaskRetries"},
		{"zero-value store", bind.Options{Store: new(store.Store)}, "Store"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opts.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) = nil, want error", c.opts)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not name the offending field %q", err, c.want)
			}
		})
	}
	// Validation must reach every public entry point, not just Validate.
	g, dp := arfOn(t, "[1,1|1,1]")
	if _, err := bind.Bind(g, dp, bind.Options{Parallelism: -1}); err == nil {
		t.Error("Bind accepted negative Parallelism")
	}
	if _, err := bind.Initial(g, dp, bind.Options{Seeds: -1}); err == nil {
		t.Error("Initial accepted negative Seeds")
	}
	if _, err := bind.InitialOnce(g, dp, 10, false, bind.Options{Alpha: math.NaN()}); err == nil {
		t.Error("InitialOnce accepted NaN Alpha")
	}
}

func TestPreCancelledContextReturnsCause(t *testing.T) {
	leakcheck.Check(t)
	g, dp := arfOn(t, "[2,1|2,1]")
	cause := errors.New("deadline from the caller")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)

	if _, err := bind.BindContext(ctx, g, dp, bind.Options{Parallelism: 4}); !errors.Is(err, cause) {
		t.Errorf("BindContext error %v does not wrap the cancellation cause", err)
	}
	if _, err := bind.InitialContext(ctx, g, dp, bind.Options{Parallelism: 4}); !errors.Is(err, cause) {
		t.Errorf("InitialContext error %v does not wrap the cancellation cause", err)
	}
	if _, err := bind.InitialCandidatesContext(ctx, g, dp, bind.Options{Parallelism: 4}); !errors.Is(err, cause) {
		t.Errorf("InitialCandidatesContext error %v does not wrap the cancellation cause", err)
	}
}

func TestCancelDuringSweepIsAllOrNothing(t *testing.T) {
	leakcheck.Check(t)
	g, dp := arfOn(t, "[2,1|2,1]")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	inj := faultinject.New(faultinject.Fault{
		Point: bind.HookSweepConfig, Hit: 1, Kind: faultinject.Cancel,
	}).OnCancel(cancel)

	res, err := bind.BindContext(ctx, g, dp, bind.Options{Parallelism: 2, Hook: inj.At})
	if err == nil {
		t.Fatalf("cancel during the sweep returned a result (L=%d) instead of an error", res.L())
	}
	if !errors.Is(err, faultinject.ErrInjectedCancel) {
		t.Errorf("sweep-cancel error %v does not wrap the injected cause", err)
	}
}

func TestCancelDuringImproveDegradesToFloor(t *testing.T) {
	leakcheck.Check(t)
	g, dp := arfOn(t, "[2,1|2,1]")
	opts := bind.Options{Parallelism: 4}

	floor, err := bind.Initial(g, dp, opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := bind.Bind(g, dp, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel at every B-ITER round boundary in turn; whatever the cut
	// point, the degraded result must sit between B-INIT and full B-ITER.
	for hit := int64(1); hit <= 6; hit++ {
		hit := hit
		t.Run(fmt.Sprintf("round=%d", hit), func(t *testing.T) {
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			inj := faultinject.New(faultinject.Fault{
				Point: bind.HookIterRound, Hit: hit, Kind: faultinject.Cancel,
			}).OnCancel(cancel)
			res, err := bind.BindContext(ctx, g, dp, bind.Options{Parallelism: 4, Hook: inj.At})
			if err != nil {
				t.Fatalf("cancel at round %d: %v", hit, err)
			}
			if !res.Degraded {
				t.Fatal("result not marked Degraded")
			}
			if !errors.Is(res.Budget, faultinject.ErrInjectedCancel) {
				t.Errorf("Budget = %v, want the injected cause", res.Budget)
			}
			if worse(res, floor) {
				t.Errorf("degraded (L=%d, M=%d) worse than B-INIT floor (L=%d, M=%d)",
					res.L(), res.Moves(), floor.L(), floor.Moves())
			}
			if better(res, full) {
				t.Errorf("degraded (L=%d, M=%d) beats the full run (L=%d, M=%d): nondeterminism?",
					res.L(), res.Moves(), full.L(), full.Moves())
			}
		})
	}
}

// worse reports a lexicographically worse (L, moves) than b's.
func worse(a, b *bind.Result) bool {
	return a.L() > b.L() || (a.L() == b.L() && a.Moves() > b.Moves())
}

func better(a, b *bind.Result) bool { return worse(b, a) }

func TestImproveContextDegradesToInput(t *testing.T) {
	leakcheck.Check(t)
	g, dp := arfOn(t, "[2,1|2,1]")
	floor, err := bind.Initial(g, dp, bind.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	inj := faultinject.New(faultinject.Fault{
		Point: bind.HookIterRound, Hit: 2, Kind: faultinject.Cancel,
	}).OnCancel(cancel)
	res, err := bind.ImproveContext(ctx, floor, bind.Options{Parallelism: 2, Hook: inj.At})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Budget == nil {
		t.Fatalf("Degraded=%v Budget=%v, want a tagged degraded result", res.Degraded, res.Budget)
	}
	if worse(res, floor) {
		t.Errorf("ImproveContext degraded below its input: (L=%d,M=%d) vs (L=%d,M=%d)",
			res.L(), res.Moves(), floor.L(), floor.Moves())
	}
}

func TestTransientPanicIsRetriedInvisibly(t *testing.T) {
	leakcheck.Check(t)
	g, dp := arfOn(t, "[2,1|2,1]")
	clean, err := bind.Bind(g, dp, bind.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var stats bind.CacheStats
	inj := faultinject.New(
		faultinject.Fault{Point: bind.HookCompute, Hit: 3, Kind: faultinject.Panic},
		faultinject.Fault{Point: bind.HookCompute, Hit: 17, Kind: faultinject.Panic},
	)
	res, err := bind.Bind(g, dp, bind.Options{Parallelism: 4, Hook: inj.At, Stats: &stats})
	if err != nil {
		t.Fatalf("run with transient panics failed outright: %v", err)
	}
	if res.Degraded {
		t.Error("retried transient faults must not mark the result Degraded")
	}
	if res.L() != clean.L() || res.Moves() != clean.Moves() {
		t.Errorf("transient panics changed the answer: (L=%d,M=%d) vs clean (L=%d,M=%d)",
			res.L(), res.Moves(), clean.L(), clean.Moves())
	}
	for i := range clean.Binding {
		if res.Binding[i] != clean.Binding[i] {
			t.Fatalf("binding diverged at node %d after retries", i)
		}
	}
	if stats.Retries() == 0 {
		t.Error("no retries recorded despite injected panics")
	}
}

func TestExhaustedRetriesSurfacePanicError(t *testing.T) {
	leakcheck.Check(t)
	g, dp := arfOn(t, "[2,1|2,1]")
	// Hit 0 = every HookCompute call panics: retries cannot heal it and
	// the fault must surface as a *PanicError with the stack captured.
	inj := faultinject.New(faultinject.Fault{Point: bind.HookCompute, Kind: faultinject.Panic})
	_, err := bind.Bind(g, dp, bind.Options{Parallelism: 4, Hook: inj.At})
	if err == nil {
		t.Fatal("persistent panics produced a result")
	}
	var pe *bind.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *bind.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	if _, ok := pe.Value.(faultinject.PanicValue); !ok {
		t.Errorf("PanicError.Value = %v, want the injected PanicValue", pe.Value)
	}
}

func TestRetriesDisabledSurfaceFirstPanic(t *testing.T) {
	leakcheck.Check(t)
	g, dp := arfOn(t, "[2,1|2,1]")
	var stats bind.CacheStats
	inj := faultinject.New(faultinject.Fault{Point: bind.HookCompute, Hit: 2, Kind: faultinject.Panic})
	_, err := bind.Bind(g, dp, bind.Options{Parallelism: 4, TaskRetries: -1, Hook: inj.At, Stats: &stats})
	var pe *bind.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("TaskRetries<0 did not surface the panic: err=%v", err)
	}
	if stats.Retries() != 0 {
		t.Errorf("retries recorded with retries disabled: %d", stats.Retries())
	}
}

func TestStatsInvariantsOnCleanRun(t *testing.T) {
	leakcheck.Check(t)
	g, dp := arfOn(t, "[2,1|2,1]")
	var stats bind.CacheStats
	counter := faultinject.New() // no faults: pure hit counter
	if _, err := bind.Bind(g, dp, bind.Options{Parallelism: 4, Hook: counter.At, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if got, want := stats.Misses(), counter.Count(bind.HookCacheInsert); got != want {
		t.Errorf("Misses = %d, want %d (one per cache insert)", got, want)
	}
	if got, want := stats.Hits()+stats.Misses(), counter.Count(bind.HookEvaluate); got != want {
		t.Errorf("Hits+Misses = %d, want %d (one per evaluation)", got, want)
	}
	if stats.Retries() != 0 {
		t.Errorf("clean run recorded %d retries", stats.Retries())
	}
}

func TestNoDoubleCountOnRetriedInsert(t *testing.T) {
	leakcheck.Check(t)
	g, dp := arfOn(t, "[2,1|2,1]")
	var stats bind.CacheStats
	// Panic exactly at the cache-insert seam: the record is computed but
	// not yet counted or inserted, so the retry must recompute and count
	// the miss exactly once.
	inj := faultinject.New(faultinject.Fault{Point: bind.HookCacheInsert, Hit: 5, Kind: faultinject.Panic})
	if _, err := bind.Bind(g, dp, bind.Options{Parallelism: 4, Hook: inj.At, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Retries() == 0 {
		t.Fatal("insert-seam panic was not retried")
	}
	// Every insert-hook firing that did NOT panic moved the miss counter
	// exactly once; the one that panicked moved nothing.
	if got, want := stats.Misses(), inj.Count(bind.HookCacheInsert)-1; got != want {
		t.Errorf("Misses = %d, want %d (insert firings minus the panicked one)", got, want)
	}
}

func TestConcurrentCancelledRunsShareStatsConsistently(t *testing.T) {
	leakcheck.Check(t)
	g, dp := arfOn(t, "[2,1|2,1]")
	var shared bind.CacheStats
	const runs = 8
	injs := make([]*faultinject.Injector, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	wg.Add(runs)
	for i := 0; i < runs; i++ {
		i := i
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			// Stagger the cancellation point across runs; even-numbered
			// runs additionally take a transient panic first.
			faults := []faultinject.Fault{
				{Point: bind.HookEvaluate, Hit: int64(40 + 25*i), Kind: faultinject.Cancel},
			}
			if i%2 == 0 {
				faults = append(faults, faultinject.Fault{
					Point: bind.HookCompute, Hit: int64(7 + i), Kind: faultinject.Panic,
				})
			}
			injs[i] = faultinject.New(faults...).OnCancel(cancel)
			_, errs[i] = bind.BindContext(ctx, g, dp,
				bind.Options{Parallelism: 2, Hook: injs[i].At, Stats: &shared})
		}()
	}
	wg.Wait()
	var inserts, evals int64
	for i := 0; i < runs; i++ {
		if errs[i] != nil && !errors.Is(errs[i], faultinject.ErrInjectedCancel) {
			t.Fatalf("run %d failed with a non-cancellation error: %v", i, errs[i])
		}
		inserts += injs[i].Count(bind.HookCacheInsert)
		evals += injs[i].Count(bind.HookEvaluate)
	}
	// Each insert firing counts one miss, across all runs at once: the
	// scheduled faults panic at the compute seam (before the insert hook
	// ever fires), so retried tasks must never double-count even when
	// the stats object is shared and runs are being cancelled under it.
	if got, want := shared.Misses(), inserts; got != want {
		t.Errorf("shared Misses = %d, want %d (sum of insert firings)", got, want)
	}
	if got := shared.Hits() + shared.Misses(); got > evals {
		t.Errorf("shared Hits+Misses = %d exceeds total evaluations %d", got, evals)
	}
}
