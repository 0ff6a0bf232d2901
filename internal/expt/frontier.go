package expt

// Design-space frontier experiments: the conclusion-motivated use case
// of sweeping one kernel over every clustering of an FU budget and
// reading off the multi-criteria tradeoff. EXPERIMENTS.md's frontier
// excerpt (DCT-DIT, bus versus ring) regenerates from here, through the
// same explore engine cmd/explore ships.

import (
	"context"
	"fmt"
	"strings"

	"vliwbind/internal/bind"
	"vliwbind/internal/explore"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
)

// FrontierConfig selects one frontier sweep.
type FrontierConfig struct {
	// Kernel is the benchmark's table name.
	Kernel string
	// ALUs, MULs, MaxClusters bound the clustering space.
	ALUs, MULs, MaxClusters int
	// Topology and LinkCap configure the interconnect ("" = shared bus).
	Topology string
	LinkCap  int
	// NumBuses is the channel budget (0 = the paper's 2).
	NumBuses int
}

// RunFrontier explores the config's space with the full B-ITER binder
// and dominance pruning on. It binds each point with bind.BindContext
// directly, so no point is audited here.
func RunFrontier(cfg FrontierConfig) (*explore.Result, error) {
	k, err := kernels.ByName(cfg.Kernel)
	if err != nil {
		return nil, err
	}
	buses := cfg.NumBuses
	if buses == 0 {
		buses = 2
	}
	mc := machine.Config{NumBuses: buses, MoveLat: 1, Topology: cfg.Topology, LinkCap: cfg.LinkCap}
	return explore.Explore(context.Background(), explore.Config{
		Graph:  k.Build(),
		Kernel: cfg.Kernel,
		ALUs:   cfg.ALUs, MULs: cfg.MULs, MaxClusters: cfg.MaxClusters,
		Machine: mc,
		Bind:    bind.BindContext,
		Par:     1,
		Prune:   true,
	})
}

// FormatFrontier renders one sweep's frontier table in the experiment
// log's style: only the Pareto-optimal points, one row per point, with
// the full objective vector (II "-" where the interconnect cannot be
// software-pipelined or no schedule was found).
func FormatFrontier(cfg FrontierConfig, res *explore.Result) string {
	topo := cfg.Topology
	if topo == "" {
		topo = "bus"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s frontier: %d ALUs + %d MULs in up to %d clusters @%s (B-ITER, %d pruned of %d)\n",
		cfg.Kernel, res.ALUs, res.MULs, res.MaxClusters, topo, res.Pruned, len(res.Points))
	fmt.Fprintf(&b, "%-18s %8s %5s %6s %6s %4s %9s\n", "DATAPATH", "CLUSTERS", "L", "MOVES", "PRESS", "II", "RF-PORTS")
	for _, p := range res.Frontier() {
		ii := "-"
		if p.II > 0 {
			ii = fmt.Sprintf("%d", p.II)
		}
		fmt.Fprintf(&b, "%-18s %8d %5d %6d %6d %4s %9d\n",
			p.Spec, p.Clusters, p.L, p.Moves, p.Pressure, ii, p.Ports)
	}
	return b.String()
}
