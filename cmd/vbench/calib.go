package main

import (
	"math/rand"
	"time"
)

// Host-speed calibration. On a 2-vCPU Linux virtual machine the speed of
// the binder drifted by 20–80% within minutes, with almost no steal
// time, and memory-heavy code slowed more than an arithmetic loop did.
// The time metrics of two runs minutes apart would then differ by more
// than any usable bound. So every run also times a fixed reference task,
// interleaved with its operations, and scales its time metrics to a
// host on which the reference takes refNominal. The reference is code of
// this file alone — a list scheduler over a fixed DAG and a walk over a
// chain of objects, the kind of work the binder does — so no change to
// the program can move it. Over seven minutes on that machine it cut the
// spread of 20-second medians of a bind from 28% to 10%, and of an
// explore sweep from 18% to 8%; in seven calm minutes it raised the
// bind's 5% to 6%.
//
// The reference allocates nothing: its buffers are fixed-size globals
// without pointers, which the garbage collector neither scans nor counts
// toward its heap goal. Its time therefore does not depend on the
// workload's heap, and the workload's collector paces as it would
// without it.

const (
	// refNominal is the reference's time on the host the time metrics
	// are scaled to: about its time on that machine when it ran fastest.
	refNominal = 1200 * time.Microsecond
	// refEvery is how often the reference runs during an untraced timed
	// phase. It always runs amid the workload's own work, never back to
	// back: run right after itself, it finds its data in the cache and
	// reads as a faster host.
	refEvery = 250 * time.Millisecond
)

// calibrator times the reference task. The zero value is ready to use.
type calibrator struct {
	times []time.Duration
	last  time.Time
}

// run times the reference once.
func (c *calibrator) run() {
	t0 := time.Now()
	refTask()
	c.last = time.Now()
	c.times = append(c.times, c.last.Sub(t0))
}

// due times the reference if refEvery has passed since it last ran: a
// closed loop calls it between operations.
func (c *calibrator) due() {
	if time.Since(c.last) >= refEvery {
		c.run()
	}
}

// during times the reference every refEvery, starting refEvery from
// now, until stop is closed: an open loop runs it beside the load.
func (c *calibrator) during(stop <-chan struct{}) {
	tick := time.NewTicker(refEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			c.run()
		}
	}
}

// factor is refNominal over the reference's median time: the factor
// that scales a time measured on this host to the nominal host; 1 before
// the reference has run.
func (c *calibrator) factor() float64 {
	if len(c.times) == 0 {
		return 1
	}
	ns := make([]float64, len(c.times))
	for i, d := range c.times {
		ns[i] = float64(d)
	}
	return float64(refNominal) / quantile(ns, 0.5)
}

// refSink keeps the reference's results live.
var refSink int

// refTask is the reference: list-schedule refDAG on two to four
// clusters, then rebuild and walk the object chain.
func refTask() {
	for c := 2; c <= 4; c++ {
		refSink += refSchedule(c, 2)
	}
	refSink += refChain()
}

const (
	refNodes  = 600
	refCycles = 4096 // more than any schedule of refDAG takes
	refObjs   = 60000
)

// refDAG is a fixed random DAG: each node has up to two predecessors
// among the twelve nodes before it, and a latency of 1 or 2.
var refDAG = func() (dag [refNodes]struct {
	preds, succs []int
	lat          int
}) {
	rng := rand.New(rand.NewSource(11))
	for i := range dag {
		dag[i].lat = 1 + rng.Intn(2)
		for k := 0; k < 2 && i > 0; k++ {
			p := i - 1 - rng.Intn(min(i, 12))
			dag[i].preds = append(dag[i].preds, p)
			dag[p].succs = append(dag[p].succs, i)
		}
	}
	return dag
}()

// The scheduler's buffers.
var (
	refPrio, refWaiting, refFinish, refWhere, refReady [refNodes]int
	refUsed                                            [4][refCycles]uint8
)

// refSchedule list-schedules refDAG on c clusters of w issue slots, one
// cycle per move between clusters: it places each ready node, highest
// priority first, on the cluster where it starts earliest, and returns
// the schedule length.
func refSchedule(c, w int) int {
	prio, waiting, finish, where := &refPrio, &refWaiting, &refFinish, &refWhere
	for i := refNodes - 1; i >= 0; i-- {
		best := 0
		for _, s := range refDAG[i].succs {
			best = max(best, prio[s])
		}
		prio[i] = best + refDAG[i].lat
	}
	ready := refReady[:0]
	for i := range refDAG {
		waiting[i] = len(refDAG[i].preds)
		if waiting[i] == 0 {
			ready = append(ready, i)
		}
	}
	for cl := range refUsed {
		clear(refUsed[cl][:])
	}
	length := 0
	for len(ready) > 0 {
		top := 0
		for k := range ready {
			if prio[ready[k]] > prio[ready[top]] {
				top = k
			}
		}
		v := ready[top]
		ready[top] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		bestT, bestC := refCycles, 0
		for cl := 0; cl < c; cl++ {
			t := 0
			for _, p := range refDAG[v].preds {
				d := finish[p]
				if where[p] != cl {
					d++
				}
				t = max(t, d)
			}
			for int(refUsed[cl][t]) >= w {
				t++
			}
			if t < bestT {
				bestT, bestC = t, cl
			}
		}
		refUsed[bestC][bestT]++
		where[v], finish[v] = bestC, bestT+refDAG[v].lat
		length = max(length, finish[v])
		for _, s := range refDAG[v].succs {
			if waiting[s]--; waiting[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return length
}

// refObj is one 64-byte object of the chain; next is the index of the
// object before it.
type refObj struct {
	next int
	vals [7]int
}

var refArena [refObjs]refObj

// refChain rewrites every object as an allocator would hand it out —
// zeroed, then filled — linking each to the one before, then walks the
// chain from its head.
func refChain() int {
	for i := range refArena {
		refArena[i] = refObj{next: i - 1, vals: [7]int{i}}
	}
	sum := 0
	for i := refObjs - 1; i >= 0; i = refArena[i].next {
		sum += refArena[i].vals[0]
	}
	return sum
}
