// Package faultinject is a deterministic, seam-level chaos layer for the
// binding stack. The evaluation engine (internal/bind) exposes named hook
// points — the worker pool, the driver sweep, the B-ITER rounds, the
// evaluator, and the previous-batch lookup — through Options.Hook; an
// Injector is a schedule of faults (panics, delays, context
// cancellations) fired at chosen hit counts of chosen points. Schedules are either written out
// explicitly (New) or derived from a seed (Seeded), so every chaotic run
// is exactly reproducible from its inputs.
//
// The package deliberately imports nothing from the rest of the
// repository: it is a pure scheduling layer, usable against any
// func(point string) hook seam, and keeping it dependency-free means the
// engine under test never links its own chaos monkey.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Kind is what a fault does when it fires.
type Kind int

const (
	// Panic panics with a PanicValue at the hook point — modeling a bug
	// in the seam's downstream code. The engine's guard must convert it
	// to a per-task error and survive.
	Panic Kind = iota
	// Delay sleeps for the fault's Delay — modeling a slow evaluation —
	// so deadline-based cancellation lands mid-run deterministically.
	Delay
	// Cancel cancels the context registered with OnCancel, with
	// ErrInjectedCancel as the cause — modeling a caller giving up
	// mid-batch.
	Cancel
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Cancel:
		return "cancel"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrInjectedCancel is the context cause installed by Cancel faults;
// tests assert cancelled runs surface exactly this cause.
var ErrInjectedCancel = errors.New("faultinject: injected cancellation")

// PanicValue is what Panic faults panic with, so a recovered fault is
// attributable to the exact point and hit that raised it.
type PanicValue struct {
	Point string
	Hit   int64
}

func (v PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", v.Point, v.Hit)
}

// Fault is one scheduled fault: fire Kind at the Hit-th call of Point
// (1-based); Hit 0 fires at every call of Point. Delay is only read by
// Delay faults.
type Fault struct {
	Point string
	Hit   int64
	Kind  Kind
	Delay time.Duration
}

// Injector counts hook-point hits and fires the scheduled faults. Safe
// for concurrent use from any number of worker goroutines; pass the At
// method as the engine's hook.
type Injector struct {
	mu     sync.Mutex
	hits   map[string]int64
	faults map[string][]Fault
	cancel func(err error) // set by OnCancel
	fired  int64
}

// New builds an injector from an explicit fault schedule.
func New(faults ...Fault) *Injector {
	inj := &Injector{
		hits:   make(map[string]int64),
		faults: make(map[string][]Fault),
	}
	for _, f := range faults {
		inj.faults[f.Point] = append(inj.faults[f.Point], f)
	}
	return inj
}

// Seeded derives a reproducible schedule of n faults over the given hook
// points: kinds, points, and hit counts (1..32) all come from the seed.
// Delays stay in the tens-of-microseconds range so chaos sweeps remain
// fast. The same (seed, points, n) always yields the same schedule.
func Seeded(seed int64, points []string, n int) *Injector {
	// Sort a copy so schedule derivation never depends on caller order.
	pts := append([]string(nil), points...)
	sort.Strings(pts)
	rng := rand.New(rand.NewSource(seed))
	faults := make([]Fault, 0, n)
	for i := 0; i < n && len(pts) > 0; i++ {
		f := Fault{
			Point: pts[rng.Intn(len(pts))],
			Hit:   1 + rng.Int63n(32),
			Kind:  Kind(rng.Intn(3)),
		}
		if f.Kind == Delay {
			f.Delay = time.Duration(1+rng.Intn(50)) * time.Microsecond
		}
		faults = append(faults, f)
	}
	return New(faults...)
}

// OnCancel registers the CancelCauseFunc that Cancel faults invoke
// (typically from context.WithCancelCause). Without it, Cancel faults
// count as fired but do nothing.
func (inj *Injector) OnCancel(cancel func(err error)) *Injector {
	inj.mu.Lock()
	inj.cancel = cancel
	inj.mu.Unlock()
	return inj
}

// At is the hook: it counts the hit, then fires every matching fault —
// delays and cancels first, panic (at most one) last, so a single call
// site can both cancel the run and model the fault that caused it.
// Pass it as bind.Options.Hook.
func (inj *Injector) At(point string) {
	inj.mu.Lock()
	inj.hits[point]++
	hit := inj.hits[point]
	var delay time.Duration
	var cancel func(err error)
	doPanic := false
	for _, f := range inj.faults[point] {
		if f.Hit != 0 && f.Hit != hit {
			continue
		}
		inj.fired++
		switch f.Kind {
		case Delay:
			delay += f.Delay
		case Cancel:
			cancel = inj.cancel
		case Panic:
			doPanic = true
		}
	}
	inj.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if cancel != nil {
		cancel(ErrInjectedCancel)
	}
	if doPanic {
		panic(PanicValue{Point: point, Hit: hit})
	}
}

// Count returns how many times point has been hit.
func (inj *Injector) Count(point string) int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.hits[point]
}

// Total returns the number of hook hits across all points.
func (inj *Injector) Total() int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var n int64
	for _, v := range inj.hits {
		n += v
	}
	return n
}

// Fired returns how many scheduled faults have fired so far.
func (inj *Injector) Fired() int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fired
}
