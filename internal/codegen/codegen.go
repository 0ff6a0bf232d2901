// Package codegen closes the loop the paper's Section 2 leaves open:
// binding works under an unbounded-register-file abstraction, with
// "register allocation later". This package is that later stage — it maps
// every value copy to a physical register of its cluster's register file
// by linear scan over live intervals, and emits a symbolic VLIW assembly
// listing (one instruction word per cycle, one slot per functional unit
// and bus channel). CheckAlloc replays the register files through time
// and verifies no live value is ever clobbered, so the whole
// bind → schedule → allocate pipeline is checkable end to end.
package codegen

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"vliwbind/internal/dfg"
	"vliwbind/internal/sched"
)

// Alloc is a register assignment for a schedule.
type Alloc struct {
	// Reg[id] is the register, within the file of its own cluster
	// (Schedule.Cluster[id]), that holds bound node id's value. A value
	// moved across clusters occupies a register in each: the producer's
	// in its cluster, the move's in the destination. A store's result
	// is a memory slot, not a register, so its entry is -1.
	Reg []int
	// NumRegs[c] is the number of physical registers allocation used in
	// cluster c.
	NumRegs []int
}

// interval is one value's live range inside its own cluster's register
// file: written at start, last read at end (inclusive cycles).
type interval struct {
	start, end int
}

// noRead marks an interval whose value no in-cluster read has extended.
const noRead = math.MinInt

// intervals computes every node's live range, indexed by node ID. A
// copy lives from the cycle its value becomes available (producer finish
// or move arrival) to its last in-cluster use; live-out values extend to
// the end of the schedule, and a value nobody reads occupies its write
// cycle only. A store's entry is meaningless: it holds no register.
func intervals(s *sched.Schedule) []interval {
	g := s.Graph
	ivs := make([]interval, g.NumNodes())
	for _, n := range g.Nodes() {
		ivs[n.ID()] = interval{s.Finish(n), noRead}
	}
	// A read in another cluster than the value's own has no copy to
	// extend: the schedule is missing a move, and CheckAlloc says so.
	use := func(id, cluster, cycle int) {
		if cluster == s.Cluster[id] && cycle > ivs[id].end {
			ivs[id].end = cycle
		}
	}
	for _, n := range g.Nodes() {
		c := s.Cluster[n.ID()]
		if n.IsMove() {
			if src := n.TransferFor(); src != nil {
				use(src.ID(), s.Cluster[src.ID()], s.Start[n.ID()])
			}
		} else {
			for _, o := range n.Operands() {
				// A load's operand is the memory slot, not a register.
				if o.IsNode() && o.Node().Op() != dfg.OpStore {
					use(o.Node().ID(), c, s.Start[n.ID()])
				}
			}
		}
		if n.IsOutput() {
			use(n.ID(), c, s.L)
		}
	}
	for i := range ivs {
		if ivs[i].end == noRead {
			ivs[i].end = ivs[i].start
		}
	}
	return ivs
}

// checkPlacement rejects a node on a nonexistent cluster or issuing or
// finishing outside [0, L], the cycle range the allocator buckets by.
// sched.Check rejects all of these too.
func checkPlacement(s *sched.Schedule) error {
	nc := s.Datapath.NumClusters()
	for _, n := range s.Graph.Nodes() {
		if c := s.Cluster[n.ID()]; c < 0 || c >= nc {
			return fmt.Errorf("codegen: node %s on nonexistent cluster %d", n.Name(), c)
		}
		if st, f := s.Start[n.ID()], s.Finish(n); st < 0 || f < st || f > s.L {
			return fmt.Errorf("codegen: node %s occupies cycles [%d, %d], outside the schedule's [0, L=%d]",
				n.Name(), st, f, s.L)
		}
	}
	return nil
}

// countingSort stably orders ids by key(id) ∈ [0, nkeys) into dst.
func countingSort(dst, ids []int32, nkeys int, key func(int32) int) {
	at := make([]int, nkeys+1)
	for _, id := range ids {
		at[key(id)+1]++
	}
	for k := 1; k <= nkeys; k++ {
		at[k] += at[k-1]
	}
	for _, id := range ids {
		k := key(id)
		dst[at[k]] = id
		at[k]++
	}
}

// Allocate assigns registers by linear scan, cluster by cluster. maxRegs
// bounds each cluster's register file; 0 means unbounded. When a cluster
// needs more registers than maxRegs, Allocate reports how many it needed
// — the paper's "costly spills should be rare" assumption turned into a
// hard check.
func Allocate(s *sched.Schedule, maxRegs int) (*Alloc, error) {
	if err := checkPlacement(s); err != nil {
		return nil, err
	}
	g := s.Graph
	ivs := intervals(s)
	a := &Alloc{
		Reg:     make([]int, g.NumNodes()),
		NumRegs: make([]int, s.Datapath.NumClusters()),
	}
	// Scan order: by cluster, then by write cycle, then by node ID — two
	// stable counting passes over the register-holding nodes.
	ids := make([]int32, 0, g.NumNodes())
	for _, n := range g.Nodes() {
		a.Reg[n.ID()] = -1
		if n.Op() != dfg.OpStore { // a store's result is a memory slot
			ids = append(ids, int32(n.ID()))
		}
	}
	byStart := make([]int32, len(ids))
	countingSort(byStart, ids, s.L+1, func(id int32) int { return ivs[id].start })
	countingSort(ids, byStart, len(a.NumRegs), func(id int32) int { return s.Cluster[id] })

	// regEnd[r] is the last read of the interval register r holds now
	// (byStart's storage, free after the second pass). A register is
	// free for an interval written at t once that read is strictly
	// before t (a register read at cycle t may be rewritten only at
	// t+1); the lowest free register is taken.
	regEnd := byStart[:0]
	for i := 0; i < len(ids); {
		c := s.Cluster[ids[i]]
		next := 0
		regEnd = regEnd[:0]
		for ; i < len(ids) && s.Cluster[ids[i]] == c; i++ {
			iv := ivs[ids[i]]
			r := 0
			for r < next && int(regEnd[r]) >= iv.start {
				r++
			}
			if r == next {
				next++
				if maxRegs > 0 && next > maxRegs {
					return nil, fmt.Errorf("codegen: cluster %d needs %d registers, file holds %d (spilling not modeled; see paper Section 2)", c, next, maxRegs)
				}
				regEnd = append(regEnd, 0)
			}
			regEnd[r] = int32(iv.end)
			a.Reg[ids[i]] = r
		}
		a.NumRegs[c] = next
	}
	return a, nil
}

// CheckAlloc replays the schedule against the allocated register files
// and verifies that every operand read observes the value its producer
// wrote — i.e., no register was reused while still live.
func CheckAlloc(s *sched.Schedule, a *Alloc) error {
	g := s.Graph
	nc := s.Datapath.NumClusters()
	if len(a.Reg) != g.NumNodes() || len(a.NumRegs) != nc {
		return fmt.Errorf("codegen: allocation sized for %d nodes and %d clusters, schedule has %d and %d",
			len(a.Reg), len(a.NumRegs), g.NumNodes(), nc)
	}
	if err := checkPlacement(s); err != nil {
		return err
	}
	// file[base[c]+r] = node ID held in register r of cluster c, -1 if
	// empty.
	base := make([]int, nc+1)
	for c, n := range a.NumRegs {
		base[c+1] = base[c] + max(n, 0)
	}
	file := make([]int, base[nc])
	for i := range file {
		file[i] = -1
	}
	// Events 2·id (the write of node id's result) and 2·id+1 (its
	// operand reads) in cycle order; within a cycle, writes (values
	// becoming available at its start) precede reads, each in ID order.
	evs := make([]int32, 2*g.NumNodes())
	for i := range evs {
		evs[i] = int32(i)
	}
	order := make([]int32, len(evs))
	countingSort(order, evs, 2*(s.L+1), func(ev int32) int {
		n := g.Node(int(ev >> 1))
		if ev&1 == 0 {
			return 2 * s.Finish(n)
		}
		return 2*s.Start[n.ID()] + 1
	})
	reg := func(id, cluster int) (int, bool) {
		r := a.Reg[id]
		return r, cluster == s.Cluster[id] && r >= 0 && r < a.NumRegs[cluster]
	}
	readCopy := func(id, cluster, cycle int, reader *dfg.Node) error {
		r, ok := reg(id, cluster)
		if !ok {
			return fmt.Errorf("codegen: %s reads node %d in cluster %d but no register was allocated", reader.Name(), id, cluster)
		}
		if held := file[base[cluster]+r]; held != id {
			return fmt.Errorf("codegen: at cycle %d, %s reads c%d.r%d expecting node %d but it holds %d",
				cycle, reader.Name(), cluster, r, id, held)
		}
		return nil
	}
	for _, ev := range order {
		n := g.Node(int(ev >> 1))
		c := s.Cluster[n.ID()]
		if ev&1 == 0 {
			if n.Op() == dfg.OpStore {
				continue // memory write, no register touched
			}
			r, ok := reg(n.ID(), c)
			if !ok {
				return fmt.Errorf("codegen: no register for result of %s", n.Name())
			}
			file[base[c]+r] = n.ID()
			continue
		}
		cycle := s.Start[n.ID()]
		if n.IsMove() {
			src := n.TransferFor()
			if src == nil {
				return fmt.Errorf("codegen: move %s lacks producer metadata", n.Name())
			}
			if err := readCopy(src.ID(), s.Cluster[src.ID()], cycle, n); err != nil {
				return err
			}
			continue
		}
		for _, o := range n.Operands() {
			if !o.IsNode() || o.Node().Op() == dfg.OpStore {
				continue // memory-slot operand (reload)
			}
			if err := readCopy(o.Node().ID(), c, cycle, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// mnemonics for the assembly listing.
var mnemonic = map[dfg.OpType]string{
	dfg.OpAdd:    "ADD",
	dfg.OpSub:    "SUB",
	dfg.OpNeg:    "NEG",
	dfg.OpMul:    "MUL",
	dfg.OpMulImm: "MULI",
	dfg.OpMove:   "MV",
	dfg.OpStore:  "ST",
	dfg.OpLoad:   "LD",
}

// Emit renders the schedule as symbolic clustered-VLIW assembly: one
// instruction word per cycle with a slot per issue. External inputs
// appear as named symbols (the enclosing scope's registers).
func Emit(s *sched.Schedule, a *Alloc) string {
	g := s.Graph
	regOf := func(id, cluster int) string {
		r := 0 // a copy with no register prints as r0
		if cluster == s.Cluster[id] && a.Reg[id] >= 0 {
			r = a.Reg[id]
		}
		return fmt.Sprintf("c%d.r%d", cluster, r)
	}
	operand := func(n *dfg.Node, o dfg.Value) string {
		if o.IsInput() {
			return g.InputName(o.Input())
		}
		return regOf(o.Node().ID(), s.Cluster[n.ID()])
	}
	// Issues per cycle, by cluster and then node ID.
	byCycle := make([][]*dfg.Node, max(s.L, 0))
	for _, n := range g.Nodes() {
		if st := s.Start[n.ID()]; st >= 0 && st < s.L {
			byCycle[st] = append(byCycle[st], n)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; %s on %s  L=%d  regs/cluster=%v\n", g.Name(), s.Datapath, s.L, a.NumRegs)
	for cycle := 0; cycle < s.L; cycle++ {
		issues := byCycle[cycle]
		slices.SortStableFunc(issues, func(x, y *dfg.Node) int {
			return cmp.Compare(s.Cluster[x.ID()], s.Cluster[y.ID()])
		})
		fmt.Fprintf(&b, "%3d:", cycle)
		if len(issues) == 0 {
			b.WriteString("  nop")
		}
		for _, n := range issues {
			c := s.Cluster[n.ID()]
			dst := regOf(n.ID(), c)
			switch {
			case n.IsMove():
				src := n.TransferFor()
				fmt.Fprintf(&b, "  bus%d: %s %s, %s;", s.Unit[n.ID()], mnemonic[n.Op()], dst, regOf(src.ID(), s.Cluster[src.ID()]))
			case n.Op() == dfg.OpStore:
				fmt.Fprintf(&b, "  c%d: ST m%d, %s;", c, n.ID(), operand(n, n.Operands()[0]))
			case n.Op() == dfg.OpLoad:
				fmt.Fprintf(&b, "  c%d: LD %s, m%d;", c, dst, n.Operands()[0].Node().ID())
			case n.Op() == dfg.OpMulImm:
				fmt.Fprintf(&b, "  c%d: %s %s, %s, #%g;", c, mnemonic[n.Op()], dst, operand(n, n.Operands()[0]), n.Imm())
			default:
				args := make([]string, len(n.Operands()))
				for i, o := range n.Operands() {
					args[i] = operand(n, o)
				}
				fmt.Fprintf(&b, "  c%d: %s %s, %s;", c, mnemonic[n.Op()], dst, strings.Join(args, ", "))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
