package audit_test

// Chaos harness for the anytime binding contract: deterministic fault
// schedules (panics, delays, mid-batch cancellations) are injected at
// every named engine seam, and every run must land in one of exactly
// four states — bit-identical to the clean reference, a Degraded
// audit-clean binding no worse than the B-INIT floor, an error wrapping
// the cancellation cause, or a recovered *bind.PanicError. Anything
// else (a corrupt binding, a silent quality regression, a leaked
// goroutine) is a bug in the fault isolation.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/dfg"
	"vliwbind/internal/faultinject"
	"vliwbind/internal/leakcheck"
	"vliwbind/internal/machine"
)

// chaosPoints are the engine seams the injector arms: every hook the
// binding stack publishes, so fault schedules cover the worker pool,
// the sweep, the improvement loop, the evaluation itself and all three
// cache seams.
var chaosPoints = []string{
	bind.HookPoolTask,
	bind.HookSweepConfig,
	bind.HookIterRound,
	bind.HookEvaluate,
	bind.HookCompute,
	bind.HookCacheLookup,
	bind.HookCacheInsert,
}

// worseLM reports whether a is lexicographically worse than b in
// (latency, moves) — the paper's quality order.
func worseLM(a, b *bind.Result) bool {
	return a.L() > b.L() || (a.L() == b.L() && a.Moves() > b.Moves())
}

// checkChaosOutcome classifies one faulted run against the clean
// reference and the B-INIT floor, failing the test on any outcome
// outside the anytime contract.
func checkChaosOutcome(t *testing.T, res *bind.Result, err error, ref, floor *bind.Result) {
	t.Helper()
	if err != nil {
		var pe *bind.PanicError
		if errors.Is(err, faultinject.ErrInjectedCancel) {
			return // cancelled before the first certified candidate
		}
		if errors.As(err, &pe) {
			if len(pe.Stack) == 0 {
				t.Error("surfaced PanicError carries no stack")
			}
			return // injected panics outlasted the retry budget
		}
		t.Fatalf("error outside the anytime contract: %v", err)
	}
	if err := audit.Audit(res); err != nil {
		t.Fatalf("faulted run produced an unauditable binding: %v", err)
	}
	if res.Degraded {
		if res.Budget == nil {
			t.Error("Degraded result with nil Budget")
		}
		if worseLM(res, floor) {
			t.Errorf("degraded (L=%d, M=%d) worse than the B-INIT floor (L=%d, M=%d)",
				res.L(), res.Moves(), floor.L(), floor.Moves())
		}
		return
	}
	// A run that completed despite the faults must be indistinguishable
	// from the clean one: retries and delays may cost time, never bits.
	if res.Budget != nil {
		t.Errorf("non-degraded result carries Budget %v", res.Budget)
	}
	if res.L() != ref.L() || res.Moves() != ref.Moves() {
		t.Errorf("faulted run diverged: (L=%d, M=%d) vs clean (L=%d, M=%d)",
			res.L(), res.Moves(), ref.L(), ref.Moves())
	}
}

// TestChaosSweep runs seeded fault schedules over small kernels and
// machines. Each schedule arms panics, delays and a cancellation at
// pseudo-random seams and hit counts; the classification above must
// hold for every one of them, and no run may leak a goroutine.
func TestChaosSweep(t *testing.T) {
	leakcheck.Check(t)
	graphs := []struct {
		name string
		g    *dfg.Graph
	}{
		{"ARF", fuzzGraph(t, 0, 0)},
		{"rand17", fuzzGraph(t, 17, 13)},
	}
	dps := []string{"[1,1|1,1]", "[2,1|1,1]", "[1,1|1,1|1,1]@ring:1"}
	opts := bind.Options{Parallelism: 4}
	for _, gc := range graphs {
		for _, spec := range dps {
			dp, err := machine.Parse(spec, machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := bind.Bind(gc.g, dp, opts)
			if err != nil {
				t.Fatal(err)
			}
			floor, err := bind.Initial(gc.g, dp, opts)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 8; seed++ {
				seed := seed
				gc, dp, ref, floor := gc, dp, ref, floor
				t.Run(fmt.Sprintf("%s/%s/seed=%d", gc.name, spec, seed), func(t *testing.T) {
					t.Parallel()
					ctx, cancel := context.WithCancelCause(context.Background())
					defer cancel(nil)
					inj := faultinject.Seeded(seed, chaosPoints, 5).OnCancel(cancel)
					res, err := bind.BindContext(ctx, gc.g, dp,
						bind.Options{Parallelism: 4, Hook: inj.At})
					checkChaosOutcome(t, res, err, ref, floor)
				})
			}
		}
	}
}

// FuzzCancelAnytime lets the fuzzer pick the cancellation seam, the hit
// count it fires on, and a mask of additional panic faults; whatever the
// schedule, the run must end inside the anytime contract. This is the
// acceptance harness for the degradation semantics: there must be no
// cancellation point that yields a binding the auditor rejects or one
// below the B-INIT floor.
func FuzzCancelAnytime(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(1), uint8(0))
	f.Add(int64(3), uint8(12), uint8(1), uint16(9), uint8(3))
	f.Add(int64(7), uint8(0), uint8(2), uint16(40), uint8(0x15))
	f.Add(int64(11), uint8(20), uint8(3), uint16(200), uint8(0xff))
	f.Add(int64(42), uint8(5), uint8(1), uint16(7), uint8(0x80))
	f.Fuzz(func(t *testing.T, seed int64, ops, dpSel uint8, cancelHit uint16, panicMask uint8) {
		leakcheck.Check(t)
		g := fuzzGraph(t, seed, ops)
		spec := fuzzDatapaths[int(dpSel)%len(fuzzDatapaths)]
		dp, err := machine.Parse(spec, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		opts := bind.Options{Parallelism: 2}
		floor, err := bind.Initial(g, dp, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The cancellation lands on a fuzzer-chosen seam and hit; each
		// set bit in panicMask arms one extra panic on a derived seam.
		faults := []faultinject.Fault{{
			Point: chaosPoints[int(cancelHit)%len(chaosPoints)],
			Hit:   1 + int64(cancelHit)%97,
			Kind:  faultinject.Cancel,
		}}
		for bit := 0; bit < 8; bit++ {
			if panicMask&(1<<bit) == 0 {
				continue
			}
			faults = append(faults, faultinject.Fault{
				Point: chaosPoints[(bit*3+int(uint8(seed)))%len(chaosPoints)],
				Hit:   1 + int64(bit)*11 + int64(cancelHit)%13,
				Kind:  faultinject.Panic,
			})
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		inj := faultinject.New(faults...).OnCancel(cancel)
		res, err := bind.BindContext(ctx, g, dp,
			bind.Options{Parallelism: 2, Hook: inj.At})
		if err != nil {
			var pe *bind.PanicError
			if !errors.Is(err, faultinject.ErrInjectedCancel) && !errors.As(err, &pe) {
				t.Fatalf("error outside the anytime contract: %v", err)
			}
			return
		}
		if err := audit.Audit(res); err != nil {
			t.Fatalf("faulted run produced an unauditable binding: %v", err)
		}
		if res.Degraded && res.Budget == nil {
			t.Error("Degraded result with nil Budget")
		}
		if worseLM(res, floor) {
			t.Errorf("result (L=%d, M=%d) worse than the B-INIT floor (L=%d, M=%d)",
				res.L(), res.Moves(), floor.L(), floor.Moves())
		}
	})
}
