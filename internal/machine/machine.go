// Package machine implements the clustered VLIW datapath model of
// Lapinskii et al. (DAC 2001), Section 2: a collection of clusters, each
// with a local register file and functional units, connected by a bus that
// can perform N_B simultaneous inter-cluster transfers. Functional units
// and the bus may be pipelined; each resource type has a latency lat() and
// a data-introduction interval dii().
package machine

import (
	"fmt"
	"strconv"
	"strings"

	"vliwbind/internal/dfg"
)

// Cluster describes one datapath cluster: how many functional units of
// each type it contains. Register files are unbounded, per the paper's
// abstraction (spills are assumed rare and handled later).
type Cluster struct {
	// NumFU maps an FU type to the number of units of that type in this
	// cluster. Indexed by dfg.FUType; FUBus entries are ignored (the bus
	// is a shared resource, not a per-cluster one).
	NumFU [dfg.NumFUTypes]int
}

// ResourceSpec describes the timing of one resource type.
type ResourceSpec struct {
	// Lat is the operation latency in clock cycles (result available
	// lat cycles after issue). Must be >= 1.
	Lat int
	// DII is the data-introduction interval: cycles between successive
	// issues on the same unit. 1 means fully pipelined; for an
	// unpipelined resource DII == Lat. Must satisfy 1 <= DII <= Lat.
	DII int
}

// Datapath is a complete clustered VLIW datapath.
type Datapath struct {
	clusters []Cluster
	ic       Interconnect
	linkOff  []int // first global channel of each link
	numChan  int   // total transfer channels across all links
	maxHops  int   // longest precomputed route, in hops
	linkCap  int   // per-link channel count (routed topologies)
	memPorts int   // per-cluster memory ports (spill stores/loads)
	spec     [dfg.NumFUTypes]ResourceSpec
	total    [dfg.NumFUTypes]int   // N(t): total FU count per type
	targets  [dfg.NumFUTypes][]int // TS per FU type; see TargetSet
}

// Config carries the tunable parameters of New. The zero value of each
// field selects the paper's Table 1 defaults.
type Config struct {
	// NumBuses is N_B, the number of simultaneous inter-cluster
	// transfers of the shared bus. Defaults to 2 (the paper's Table 1
	// setting). Only meaningful for Topology "bus" (or empty); the
	// routed topologies size their links with LinkCap instead.
	NumBuses int
	// Topology selects the interconnect joining the clusters: "bus"
	// (the paper's shared bus; the default when empty), "p2p" (a full
	// crossbar of dedicated src→dst links), "ring" (a bidirectional
	// ring with shortest-path routing and per-hop MoveLat), or "none"
	// (no interconnect at all — the explicit configuration for
	// single-cluster machines, under which any binding that needs a
	// transfer is rejected).
	Topology string
	// LinkCap is the per-link channel count of the routed topologies
	// ("p2p", "ring"). Defaults to 1. Ignored for "bus" and "none".
	LinkCap int
	// MoveLat is lat(move), the bus transfer latency. Defaults to 1.
	MoveLat int
	// MoveDII is dii(move). Defaults to 1 (fully pipelined bus).
	MoveDII int
	// ALU and Mul override the ALU / multiplier timing. A zero-valued
	// spec defaults to {Lat: 1, DII: 1}.
	ALU ResourceSpec
	Mul ResourceSpec
	// Mem overrides the spill store/load timing (defaults to
	// {Lat: 1, DII: 1}) and MemPorts the per-cluster memory port count
	// (defaults to 1). Memory ports only matter for graphs containing
	// spill code; the paper's experiments never exercise them.
	Mem      ResourceSpec
	MemPorts int
}

func (s ResourceSpec) orDefault() ResourceSpec {
	if s.Lat == 0 && s.DII == 0 {
		return ResourceSpec{Lat: 1, DII: 1}
	}
	if s.DII == 0 {
		s.DII = s.Lat // unpipelined by default
	}
	return s
}

// New builds a datapath from per-cluster FU counts and a configuration.
func New(clusters []Cluster, cfg Config) (*Datapath, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("machine: datapath needs at least one cluster")
	}
	if cfg.Topology == "" {
		cfg.Topology = TopoBus
	}
	if cfg.NumBuses == 0 {
		cfg.NumBuses = 2
	}
	if cfg.NumBuses < 0 {
		return nil, fmt.Errorf("machine: invalid bus count %d", cfg.NumBuses)
	}
	if cfg.LinkCap == 0 {
		cfg.LinkCap = 1
	}
	if cfg.LinkCap < 0 {
		return nil, fmt.Errorf("machine: invalid link capacity %d", cfg.LinkCap)
	}
	if cfg.MoveLat == 0 {
		cfg.MoveLat = 1
	}
	if cfg.MoveDII == 0 {
		cfg.MoveDII = 1
	}
	if cfg.MemPorts == 0 {
		cfg.MemPorts = 1
	}
	if cfg.MemPorts < 0 {
		return nil, fmt.Errorf("machine: invalid memory port count %d", cfg.MemPorts)
	}
	ic, err := newInterconnect(cfg.Topology, len(clusters), cfg.NumBuses, cfg.LinkCap)
	if err != nil {
		return nil, err
	}
	d := &Datapath{
		clusters: append([]Cluster(nil), clusters...),
		memPorts: cfg.MemPorts,
		linkCap:  cfg.LinkCap,
	}
	d.setInterconnect(ic)
	d.spec[dfg.FUALU] = cfg.ALU.orDefault()
	d.spec[dfg.FUMul] = cfg.Mul.orDefault()
	d.spec[dfg.FUMem] = cfg.Mem.orDefault()
	d.spec[dfg.FUBus] = ResourceSpec{Lat: cfg.MoveLat, DII: cfg.MoveDII}
	for t := 1; t < dfg.NumFUTypes; t++ {
		s := d.spec[t]
		if s.Lat < 1 || s.DII < 1 || s.DII > s.Lat {
			return nil, fmt.Errorf("machine: invalid spec for %s: lat=%d dii=%d", dfg.FUType(t), s.Lat, s.DII)
		}
	}
	for ci, c := range clusters {
		any := false
		for t := range c.NumFU {
			if c.NumFU[t] < 0 {
				return nil, fmt.Errorf("machine: cluster %d has negative FU count", ci)
			}
			if dfg.FUType(t) == dfg.FUALU || dfg.FUType(t) == dfg.FUMul {
				if c.NumFU[t] > 0 {
					any = true
				}
				d.total[t] += c.NumFU[t]
			}
		}
		if !any {
			return nil, fmt.Errorf("machine: cluster %d has no functional units", ci)
		}
	}
	d.total[dfg.FUMem] = d.memPorts * len(clusters)
	d.setTargets()
	return d, nil
}

// setTargets computes the target set of every FU type once, so
// TargetSet never allocates. The bus type's set depends on the channel
// count, hence the recomputation in WithBuses. Each set is clipped to
// its length, so an append by a caller copies instead of writing into
// the shared array.
func (d *Datapath) setTargets() {
	for t := range d.targets {
		var ts []int
		for c := range d.clusters {
			if d.NumFU(c, dfg.FUType(t)) > 0 {
				ts = append(ts, c)
			}
		}
		d.targets[t] = ts[:len(ts):len(ts)]
	}
}

// setInterconnect installs ic and recomputes the derived channel
// layout: linkOff maps each link to its first global channel, numChan
// is the total channel count, maxHops the longest precomputed route.
func (d *Datapath) setInterconnect(ic Interconnect) {
	d.ic = ic
	nl := ic.NumLinks()
	d.linkOff = make([]int, nl+1)
	for l := 0; l < nl; l++ {
		d.linkOff[l+1] = d.linkOff[l] + ic.LinkCapacity(l)
	}
	d.numChan = d.linkOff[nl]
	d.maxHops = 0
	c := len(d.clusters)
	for src := 0; src < c; src++ {
		for dst := 0; dst < c; dst++ {
			if h := len(ic.Route(src, dst)); h > d.maxHops {
				d.maxHops = h
			}
		}
	}
}

// NumClusters is the number of clusters in the datapath.
func (d *Datapath) NumClusters() int { return len(d.clusters) }

// NumBuses is the total number of transfer channels across all
// interconnect links — N_B for the paper's shared bus, the summed link
// capacities for the routed topologies, zero for TopoNone.
func (d *Datapath) NumBuses() int { return d.numChan }

// Interconnect returns the interconnect joining the clusters.
func (d *Datapath) Interconnect() Interconnect { return d.ic }

// Topology returns the interconnect topology name.
func (d *Datapath) Topology() string { return d.ic.Topology() }

// NumLinks is the number of interconnect links.
func (d *Datapath) NumLinks() int { return d.ic.NumLinks() }

// LinkCapacity is the channel count of link l.
func (d *Datapath) LinkCapacity(l int) int { return d.ic.LinkCapacity(l) }

// LinkName names link l for rendering.
func (d *Datapath) LinkName(l int) string { return d.ic.LinkName(l) }

// LinkOffset is the first global channel index of link l. Channels are
// numbered 0..NumBuses()-1 in link order, so link l owns
// [LinkOffset(l), LinkOffset(l)+LinkCapacity(l)).
func (d *Datapath) LinkOffset(l int) int { return d.linkOff[l] }

// LinkOfChannel is the inverse of the channel layout: the link owning
// global channel u.
func (d *Datapath) LinkOfChannel(u int) int {
	for l := 0; l+1 < len(d.linkOff); l++ {
		if u < d.linkOff[l+1] {
			return l
		}
	}
	return -1
}

// Route returns the link ids a transfer from cluster src to cluster dst
// traverses, in hop order; nil when src == dst or no route exists. The
// slice is shared and must not be mutated.
func (d *Datapath) Route(src, dst int) []int { return d.ic.Route(src, dst) }

// RouteCost is the transfer latency from cluster src to cluster dst:
// MoveLat per hop of the route. It is 0 when src == dst and -1 when no
// route exists. On the shared bus every route is one hop, so RouteCost
// degenerates to the paper's constant lat(move).
func (d *Datapath) RouteCost(src, dst int) int {
	if src == dst {
		return 0
	}
	r := d.ic.Route(src, dst)
	if len(r) == 0 {
		return -1
	}
	return len(r) * d.MoveLat()
}

// MaxHops is the longest precomputed route in hops (1 for bus and p2p,
// up to ⌊C/2⌋ for a C-cluster ring, 0 for TopoNone).
func (d *Datapath) MaxHops() int { return d.maxHops }

// MultiHop reports whether any route takes more than one hop — the
// regime where a transfer occupies several links at staggered windows.
func (d *Datapath) MultiHop() bool { return d.maxHops > 1 }

// NumFU returns N(c,t): the number of FUs of type t in cluster c. For
// t == FUBus it returns the total channel count regardless of c, so the
// interconnect can be treated uniformly as a resource type; FUMem
// reports the uniform per-cluster memory port count.
func (d *Datapath) NumFU(c int, t dfg.FUType) int {
	switch t {
	case dfg.FUBus:
		return d.numChan
	case dfg.FUMem:
		return d.memPorts
	default:
		return d.clusters[c].NumFU[t]
	}
}

// TotalFU returns N(t): the datapath-wide number of FUs of type t. For
// t == FUBus it returns the total channel count.
func (d *Datapath) TotalFU(t dfg.FUType) int {
	if t == dfg.FUBus {
		return d.numChan
	}
	return d.total[t]
}

// WithBuses returns a copy of the datapath with every link's capacity
// set to n (for the shared bus: n channels); timing, topology and
// cluster structure are unchanged, and TopoNone stays without links.
// Used to build the relaxed (contention-free) machine the PCC
// baseline's approximate scheduler evaluates against.
func (d *Datapath) WithBuses(n int) *Datapath {
	if n < 1 {
		n = 1
	}
	nd := *d
	ic, err := newInterconnect(d.ic.Topology(), len(d.clusters), n, n)
	if err != nil {
		panic(err) // unreachable: the topology was validated at construction
	}
	nd.linkCap = n
	nd.setInterconnect(ic)
	nd.setTargets()
	return &nd
}

// Spec returns the timing of resource type t.
func (d *Datapath) Spec(t dfg.FUType) ResourceSpec { return d.spec[t] }

// Latency returns lat(op) for an operation type; it satisfies dfg.LatencyFn.
func (d *Datapath) Latency(op dfg.OpType) int { return d.spec[dfg.FUTypeOf(op)].Lat }

// DII returns dii(op) for an operation type.
func (d *Datapath) DII(op dfg.OpType) int { return d.spec[dfg.FUTypeOf(op)].DII }

// MoveLat is lat(move): the bus transfer latency.
func (d *Datapath) MoveLat() int { return d.spec[dfg.FUBus].Lat }

// MoveDII is dii(move).
func (d *Datapath) MoveDII() int { return d.spec[dfg.FUBus].DII }

// Supports reports whether cluster c can execute operations of type op,
// i.e. N(c, futype(op)) > 0.
func (d *Datapath) Supports(c int, op dfg.OpType) bool {
	return d.NumFU(c, dfg.FUTypeOf(op)) > 0
}

// TargetSet returns TS(v) for an operation type: the clusters that have at
// least one FU able to execute it, in cluster order. The slice is shared
// by every caller and must not be mutated.
func (d *Datapath) TargetSet(op dfg.OpType) []int { return d.targets[dfg.FUTypeOf(op)] }

// CanRun reports whether every operation of g has a non-empty target set
// on this datapath, returning a descriptive error otherwise.
func (d *Datapath) CanRun(g *dfg.Graph) error {
	for _, n := range g.Nodes() {
		if n.IsMove() {
			if d.numChan == 0 {
				return fmt.Errorf("machine: graph has moves but datapath has no interconnect")
			}
			continue
		}
		if d.TotalFU(n.FUType()) == 0 {
			return fmt.Errorf("machine: no %s units for op %s", n.FUType(), n.Name())
		}
	}
	return nil
}

// String renders the cluster structure in the paper's notation, e.g.
// "[2,1|1,1]" for a two-cluster machine with 2 ALUs + 1 multiplier in the
// first cluster and 1 + 1 in the second.
func (d *Datapath) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range d.clusters {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d,%d", c.NumFU[dfg.FUALU], c.NumFU[dfg.FUMul])
	}
	b.WriteByte(']')
	return b.String()
}

// Parse builds a datapath from the paper's cluster notation: a list of
// clusters separated by '|', each "a,m" giving ALU and multiplier counts,
// optionally wrapped in brackets. Examples: "[2,1|1,1]", "1,1|1,1|1,1".
// The configuration supplies bus count and timing; '@' directives in the
// spec (see ParseSpec) override the configuration's interconnect and
// move-timing fields, so a fully-specified spec string means the same
// machine regardless of cfg.
func Parse(s string, cfg Config) (*Datapath, error) {
	trimmed := strings.TrimSpace(s)
	if rest, directives, ok := strings.Cut(trimmed, "@"); ok {
		trimmed = strings.TrimSpace(rest)
		var err error
		if cfg, err = applyDirectives(cfg, directives, s); err != nil {
			return nil, err
		}
	}
	trimmed = strings.TrimPrefix(trimmed, "[")
	trimmed = strings.TrimSuffix(trimmed, "]")
	if trimmed == "" {
		return nil, fmt.Errorf("machine: empty datapath spec %q", s)
	}
	var clusters []Cluster
	for _, part := range strings.Split(trimmed, "|") {
		part = strings.TrimSpace(part)
		fields := strings.Split(part, ",")
		if len(fields) != 2 {
			return nil, fmt.Errorf("machine: bad cluster spec %q in %q (want \"alus,muls\")", part, s)
		}
		a, err1 := strconv.Atoi(strings.TrimSpace(fields[0]))
		m, err2 := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("machine: bad cluster spec %q in %q", part, s)
		}
		if a < 0 || m < 0 {
			return nil, fmt.Errorf("machine: negative FU count in %q", s)
		}
		var c Cluster
		c.NumFU[dfg.FUALU] = a
		c.NumFU[dfg.FUMul] = m
		clusters = append(clusters, c)
	}
	return New(clusters, cfg)
}

// MustParse is Parse that panics on error; for tests and table-driven
// experiment definitions where the spec is a literal.
func MustParse(s string, cfg Config) *Datapath {
	d, err := Parse(s, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// applyDirectives folds the '@' directives of a full machine spec into
// cfg. Each directive is either a topology with an optional capacity —
// "bus:2" (channel count), "p2p:1" / "ring:1" (per-link channels),
// "none" — or move timing "move:lat[,dii]".
func applyDirectives(cfg Config, directives, spec string) (Config, error) {
	for _, dir := range strings.Split(directives, "@") {
		dir = strings.TrimSpace(dir)
		name, arg, hasArg := strings.Cut(dir, ":")
		switch name {
		case TopoBus, TopoP2P, TopoRing, TopoNone:
			cfg.Topology = name
			if !hasArg {
				break
			}
			n, err := strconv.Atoi(strings.TrimSpace(arg))
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("machine: bad capacity %q in spec %q", arg, spec)
			}
			if name == TopoBus {
				cfg.NumBuses = n
			} else {
				cfg.LinkCap = n
			}
		case "move":
			if !hasArg {
				return cfg, fmt.Errorf("machine: directive @move needs lat[,dii] in spec %q", spec)
			}
			latStr, diiStr, hasDII := strings.Cut(arg, ",")
			lat, err := strconv.Atoi(strings.TrimSpace(latStr))
			if err != nil || lat < 1 {
				return cfg, fmt.Errorf("machine: bad move latency %q in spec %q", latStr, spec)
			}
			cfg.MoveLat, cfg.MoveDII = lat, 1
			if hasDII {
				dii, err := strconv.Atoi(strings.TrimSpace(diiStr))
				if err != nil || dii < 1 {
					return cfg, fmt.Errorf("machine: bad move dii %q in spec %q", diiStr, spec)
				}
				cfg.MoveDII = dii
			}
		default:
			return cfg, fmt.Errorf("machine: unknown directive %q in spec %q", dir, spec)
		}
	}
	return cfg, nil
}

// ParseSpec builds a datapath from the full, round-trippable spec
// notation: the cluster structure followed by '@' directives, e.g.
// "[2,1|1,1]@bus:2", "[1,1|1,1|1,1]@ring:1@move:2,1", "[2,1]@none".
// It is Parse with a default configuration — FU timing not expressible
// in the notation keeps its defaults — and satisfies
// ParseSpec(d.SpecString()) ≡ d for every machine New can build.
func ParseSpec(s string) (*Datapath, error) { return Parse(s, Config{}) }

// SpecString renders the machine in the full notation ParseSpec reads:
// cluster structure, topology with its channel capacity, and move
// timing when it differs from the 1,1 default. Unlike String, the
// result round-trips: ParseSpec(d.SpecString()) reconstructs the same
// cluster structure, interconnect, and move timing.
func (d *Datapath) SpecString() string {
	var b strings.Builder
	b.WriteString(d.String())
	switch d.ic.Topology() {
	case TopoBus:
		fmt.Fprintf(&b, "@%s:%d", TopoBus, d.numChan)
	case TopoNone:
		b.WriteByte('@')
		b.WriteString(TopoNone)
	default:
		fmt.Fprintf(&b, "@%s:%d", d.ic.Topology(), d.linkCap)
	}
	if d.MoveLat() != 1 || d.MoveDII() != 1 {
		fmt.Fprintf(&b, "@move:%d,%d", d.MoveLat(), d.MoveDII())
	}
	return b.String()
}
