package codegen_test

// The map-based register allocator, allocation replay and listing
// emitter that codegen.Allocate, CheckAlloc and Emit replaced, kept
// verbatim (renamed) as frozen references: TestAllocationMatchesReference
// holds the node-indexed versions to them on the audit corpus.

import (
	"fmt"
	"sort"
	"strings"

	"vliwbind/internal/dfg"
	"vliwbind/internal/sched"
)

// refKey identifies one resident value copy: node ID plus the cluster
// whose register file holds it (a value moved across clusters occupies a
// register in each).
type refKey struct {
	Node    int
	Cluster int
}

// refAlloc is a register assignment for a schedule.
type refAlloc struct {
	// Reg maps each resident value copy to a register index within its
	// cluster's register file.
	Reg map[refKey]int
	// NumRegs[c] is the number of physical registers allocation used in
	// cluster c.
	NumRegs []int
}

// refInterval is one live range inside a single cluster's register file.
type refInterval struct {
	key        refKey
	start, end int // inclusive cycles: value written at start, last read at end
}

// refIntervals computes per-cluster live ranges. A copy lives from the cycle
// its value becomes available (producer finish or move arrival) to its
// last in-cluster use; live-out values extend to the end of the schedule.
func refIntervals(s *sched.Schedule) map[int][]refInterval {
	g := s.Graph
	write := make(map[refKey]int)
	lastUse := make(map[refKey]int)
	use := func(k refKey, cycle int) {
		if cur, ok := lastUse[k]; !ok || cycle > cur {
			lastUse[k] = cycle
		}
	}
	for _, n := range g.Nodes() {
		c := s.Cluster[n.ID()]
		if n.Op() != dfg.OpStore {
			// A store's result is a memory slot, not a register.
			write[refKey{n.ID(), c}] = s.Finish(n)
		}
		if n.IsMove() {
			if src := n.TransferFor(); src != nil {
				use(refKey{src.ID(), s.Cluster[src.ID()]}, s.Start[n.ID()])
			}
		} else {
			for _, o := range n.Operands() {
				// A load's operand is the memory slot, not a register.
				if o.IsNode() && o.Node().Op() != dfg.OpStore {
					use(refKey{o.Node().ID(), c}, s.Start[n.ID()])
				}
			}
		}
		if n.IsOutput() && n.Op() != dfg.OpStore {
			use(refKey{n.ID(), c}, s.L)
		}
	}
	out := make(map[int][]refInterval)
	for k, w := range write {
		end, ok := lastUse[k]
		if !ok {
			end = w // dead value: occupies its write cycle only
		}
		out[k.Cluster] = append(out[k.Cluster], refInterval{k, w, end})
	}
	return out
}

// refAllocate assigns registers by linear scan, cluster by cluster. maxRegs
// bounds each cluster's register file; 0 means unbounded. When a cluster
// needs more registers than maxRegs, Allocate reports how many it needed
// — the paper's "costly spills should be rare" assumption turned into a
// hard check.
func refAllocate(s *sched.Schedule, maxRegs int) (*refAlloc, error) {
	byCluster := refIntervals(s)
	a := &refAlloc{
		Reg:     make(map[refKey]int),
		NumRegs: make([]int, s.Datapath.NumClusters()),
	}
	for c, ivs := range byCluster {
		sort.SliceStable(ivs, func(i, j int) bool {
			if ivs[i].start != ivs[j].start {
				return ivs[i].start < ivs[j].start
			}
			return ivs[i].key.Node < ivs[j].key.Node
		})
		type active struct {
			end, reg int
		}
		var live []active
		var free []int
		next := 0
		for _, iv := range ivs {
			// Expire intervals that ended strictly before this write:
			// a register read at cycle t may be rewritten only at t+1.
			keep := live[:0]
			for _, ac := range live {
				if ac.end < iv.start {
					free = append(free, ac.reg)
				} else {
					keep = append(keep, ac)
				}
			}
			live = keep
			var r int
			if len(free) > 0 {
				sort.Ints(free)
				r, free = free[0], free[1:]
			} else {
				r = next
				next++
				if maxRegs > 0 && next > maxRegs {
					return nil, fmt.Errorf("codegen: cluster %d needs %d registers, file holds %d (spilling not modeled; see paper Section 2)", c, next, maxRegs)
				}
			}
			a.Reg[iv.key] = r
			live = append(live, active{iv.end, r})
		}
		a.NumRegs[c] = next
	}
	return a, nil
}

// refCheckAlloc replays the schedule against the allocated register files
// and verifies that every operand read observes the value its producer
// wrote — i.e., no register was reused while still live.
func refCheckAlloc(s *sched.Schedule, a *refAlloc) error {
	g := s.Graph
	// file[c][r] = node ID currently held, -1 if empty.
	file := make([][]int, s.Datapath.NumClusters())
	for c := range file {
		file[c] = make([]int, a.NumRegs[c])
		for r := range file[c] {
			file[c][r] = -1
		}
	}
	type ev struct {
		cycle int
		write bool
		node  *dfg.Node
	}
	var evs []ev
	for _, n := range g.Nodes() {
		evs = append(evs, ev{s.Start[n.ID()], false, n}, ev{s.Finish(n), true, n})
	}
	// Within a cycle, writes (values becoming available at its start)
	// precede reads.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].cycle != evs[j].cycle {
			return evs[i].cycle < evs[j].cycle
		}
		return evs[i].write && !evs[j].write
	})
	readCopy := func(id, cluster, cycle int, reader *dfg.Node) error {
		k := refKey{id, cluster}
		r, ok := a.Reg[k]
		if !ok {
			return fmt.Errorf("codegen: %s reads node %d in cluster %d but no register was allocated", reader.Name(), id, cluster)
		}
		if file[cluster][r] != id {
			return fmt.Errorf("codegen: at cycle %d, %s reads c%d.r%d expecting node %d but it holds %d",
				cycle, reader.Name(), cluster, r, id, file[cluster][r])
		}
		return nil
	}
	for _, e := range evs {
		n := e.node
		c := s.Cluster[n.ID()]
		if e.write {
			if n.Op() == dfg.OpStore {
				continue // memory write, no register touched
			}
			k := refKey{n.ID(), c}
			r, ok := a.Reg[k]
			if !ok {
				return fmt.Errorf("codegen: no register for result of %s", n.Name())
			}
			file[c][r] = n.ID()
			continue
		}
		if n.IsMove() {
			src := n.TransferFor()
			if src == nil {
				return fmt.Errorf("codegen: move %s lacks producer metadata", n.Name())
			}
			if err := readCopy(src.ID(), s.Cluster[src.ID()], e.cycle, n); err != nil {
				return err
			}
			continue
		}
		for _, o := range n.Operands() {
			if !o.IsNode() || o.Node().Op() == dfg.OpStore {
				continue // memory-slot operand (reload)
			}
			if err := readCopy(o.Node().ID(), c, e.cycle, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// mnemonics for the assembly listing.
var refMnemonic = map[dfg.OpType]string{
	dfg.OpAdd:    "ADD",
	dfg.OpSub:    "SUB",
	dfg.OpNeg:    "NEG",
	dfg.OpMul:    "MUL",
	dfg.OpMulImm: "MULI",
	dfg.OpMove:   "MV",
	dfg.OpStore:  "ST",
	dfg.OpLoad:   "LD",
}

// refEmit renders the schedule as symbolic clustered-VLIW assembly: one
// instruction word per cycle with a slot per issue. External inputs
// appear as named symbols (the enclosing scope's registers).
func refEmit(s *sched.Schedule, a *refAlloc) string {
	g := s.Graph
	regOf := func(id, cluster int) string {
		return fmt.Sprintf("c%d.r%d", cluster, a.Reg[refKey{id, cluster}])
	}
	operand := func(n *dfg.Node, o dfg.Value) string {
		if o.IsInput() {
			return g.InputName(o.Input())
		}
		return regOf(o.Node().ID(), s.Cluster[n.ID()])
	}
	byCycle := make(map[int][]*dfg.Node)
	for _, n := range g.Nodes() {
		byCycle[s.Start[n.ID()]] = append(byCycle[s.Start[n.ID()]], n)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; %s on %s  L=%d  regs/cluster=%v\n", g.Name(), s.Datapath, s.L, a.NumRegs)
	for cycle := 0; cycle < s.L; cycle++ {
		issues := byCycle[cycle]
		sort.SliceStable(issues, func(i, j int) bool {
			ci, cj := s.Cluster[issues[i].ID()], s.Cluster[issues[j].ID()]
			if ci != cj {
				return ci < cj
			}
			return issues[i].ID() < issues[j].ID()
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
				fmt.Fprintf(&b, "  bus%d: %s %s, %s;", s.Unit[n.ID()], refMnemonic[n.Op()], dst, regOf(src.ID(), s.Cluster[src.ID()]))
			case n.Op() == dfg.OpStore:
				fmt.Fprintf(&b, "  c%d: ST m%d, %s;", c, n.ID(), operand(n, n.Operands()[0]))
			case n.Op() == dfg.OpLoad:
				fmt.Fprintf(&b, "  c%d: LD %s, m%d;", c, dst, n.Operands()[0].Node().ID())
			case n.Op() == dfg.OpMulImm:
				fmt.Fprintf(&b, "  c%d: %s %s, %s, #%g;", c, refMnemonic[n.Op()], dst, operand(n, n.Operands()[0]), n.Imm())
			default:
				args := make([]string, len(n.Operands()))
				for i, o := range n.Operands() {
					args[i] = operand(n, o)
				}
				fmt.Fprintf(&b, "  c%d: %s %s, %s;", c, refMnemonic[n.Op()], dst, strings.Join(args, ", "))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
