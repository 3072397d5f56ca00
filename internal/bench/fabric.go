package bench

// Leaf-spine fabric sweep. RunFabric measures commit latency as the
// same replica set spreads across more racks (each rack boundary adds
// two switch hops to the scatter and the gather), and quantifies the
// hierarchical-aggregation win: the number of ACKs that cross a spine
// with the leaf partial-count aggregation on, against the same workload
// with CPConfig.FlatGather relaying every remote ACK individually.
// Recorded in the machine-readable report (schema v5) and gated by the
// regression comparator.

import (
	"fmt"
	"time"

	"p4ce"
	swp4ce "p4ce/internal/p4ce"
)

// FabricConfig parameterizes the topology sweep.
type FabricConfig struct {
	// Racks lists the rack counts to sweep. 0 means the classic
	// single-switch cluster — the latency baseline every fabric point
	// is compared against.
	Racks []int `json:"racks"`
	// Spines is the spine count of every fabric point (crossings are
	// spread across spines by rack hash; the count does not change the
	// ACK totals, only the per-link load).
	Spines int `json:"spines"`
	// Nodes is the machine count, leader included; replicas are
	// assigned to racks round-robin.
	Nodes    int `json:"nodes"`
	ItemSize int `json:"item_size"`
	// Depth is the closed-loop depth.
	Depth  int   `json:"depth"`
	Warmup int   `json:"warmup"`
	Ops    int   `json:"ops"`
	Seed   int64 `json:"-"`
}

// DefaultFabricConfig is the EXPERIMENTS.md sweep. Nine machines, so
// even at four racks every remote rack holds at least two replicas and
// the leaf aggregation has something to merge (with one replica per
// rack a partial count is the replica's ACK, and the hierarchy saves
// nothing by construction).
func DefaultFabricConfig() FabricConfig {
	return FabricConfig{
		Racks:    []int{0, 2, 4},
		Spines:   2,
		Nodes:    9,
		ItemSize: 512,
		Depth:    16,
		Warmup:   500,
		Ops:      4000,
		Seed:     1,
	}
}

// FabricPoint is one measured rack count.
type FabricPoint struct {
	// Racks is 0 for the single-switch baseline.
	Racks      int           `json:"racks"`
	Throughput float64       `json:"throughput_ops_per_s"` // committed consensus operations per second
	MeanLat    time.Duration `json:"mean_ns"`
	P50Lat     time.Duration `json:"p50_ns"`
	P99Lat     time.Duration `json:"p99_ns"`
	// AcksUp counts the ACK-bearing frames that crossed a spine during
	// the run with hierarchical aggregation on: one partial-count ACK
	// per (rack, slot) instead of one per remote replica.
	AcksUp uint64 `json:"acks_up_forwarded"`
	// Partials counts the root-side merges of those partial counts.
	Partials uint64 `json:"partials_aggregated"`
	// FlatAcksUp is the spine-crossing ACK count of the identical
	// workload under the FlatGather ablation, where every remote
	// replica's ACK is relayed to the root individually. Zero on the
	// single-switch baseline (there is no spine to cross).
	FlatAcksUp uint64 `json:"flat_acks_up_forwarded"`
	// Events is the kernel's determinism fingerprint for the
	// hierarchical run.
	Events uint64 `json:"events"`
}

func (p FabricPoint) check() error {
	if p.Throughput <= 0 || p.MeanLat <= 0 {
		return fmt.Errorf("racks=%d: non-positive measurement", p.Racks)
	}
	if p.Racks <= 1 {
		// Single switch (or single rack): no spine to cross.
		if p.AcksUp != 0 || p.Partials != 0 || p.FlatAcksUp != 0 {
			return fmt.Errorf("racks=%d: spine crossings on a spineless topology", p.Racks)
		}
		return nil
	}
	// Multi-rack: the hierarchy must engage, and the aggregated crossing
	// count must beat the per-replica relay of the flat ablation — the
	// section's whole claim.
	if p.AcksUp == 0 || p.Partials == 0 {
		return fmt.Errorf("racks=%d: hierarchical aggregation never engaged", p.Racks)
	}
	if p.FlatAcksUp <= p.AcksUp {
		return fmt.Errorf("racks=%d: flat crossings %d not above hierarchical %d", p.Racks, p.FlatAcksUp, p.AcksUp)
	}
	return nil
}

// runFabricOnce measures one closed loop on one topology.
func runFabricOnce(cfg FabricConfig, racks int, flat bool) (ClosedLoopResult, swp4ce.DataplaneStats, uint64, error) {
	opts := p4ce.Options{
		Nodes:         cfg.Nodes,
		Mode:          p4ce.ModeP4CE,
		Seed:          cfg.Seed,
		PipelineDepth: cfg.Depth,
	}
	if racks > 0 {
		opts.Topology = &p4ce.Topology{Racks: racks, Spines: cfg.Spines, FlatGather: flat}
	}
	cl, leader, err := Steady(opts)
	if err != nil {
		return ClosedLoopResult{}, swp4ce.DataplaneStats{}, 0, err
	}
	res, err := ClosedLoop(cl, leader, cfg.ItemSize, cfg.Depth, cfg.Warmup, cfg.Ops)
	if err != nil {
		return ClosedLoopResult{}, swp4ce.DataplaneStats{}, 0, err
	}
	return res, cl.SwitchStats(), cl.EventsProcessed(), nil
}

// RunFabric sweeps the rack count, pairing every fabric point with a
// FlatGather run of the same workload so the fan-in saving is measured
// rather than derived.
func RunFabric(cfg FabricConfig) ([]FabricPoint, error) {
	var out []FabricPoint
	for _, racks := range cfg.Racks {
		res, st, events, err := runFabricOnce(cfg, racks, false)
		if err != nil {
			return nil, err
		}
		pt := FabricPoint{
			Racks:      racks,
			Throughput: res.Throughput,
			MeanLat:    res.MeanLat,
			P50Lat:     res.P50Lat,
			P99Lat:     res.P99Lat,
			AcksUp:     st.AcksUpForwarded,
			Partials:   st.PartialsAggregated,
			Events:     events,
		}
		if racks > 1 {
			_, fst, _, err := runFabricOnce(cfg, racks, true)
			if err != nil {
				return nil, err
			}
			pt.FlatAcksUp = fst.AcksUpForwarded
		}
		out = append(out, pt)
	}
	return out, nil
}
