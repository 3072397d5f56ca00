package bench

// Leaf-spine fabric sweep. RunFabric measures commit latency as the
// same replica set spreads across more racks (each rack boundary adds
// two switch hops to the scatter and the gather), and counts the ACKs
// that cross a spine under the leaf partial-count aggregation: one per
// (rack, round), where a per-ACK relay would carry one per remote
// replica. Recorded in the machine-readable report (the fabric section)
// and gated by the regression comparator.

import (
	"fmt"
	"time"

	"p4ce"
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
		if p.AcksUp != 0 || p.Partials != 0 {
			return fmt.Errorf("racks=%d: spine crossings on a spineless topology", p.Racks)
		}
		return nil
	}
	// Multi-rack: the hierarchy must engage.
	if p.AcksUp == 0 || p.Partials == 0 {
		return fmt.Errorf("racks=%d: hierarchical aggregation never engaged", p.Racks)
	}
	return nil
}

// RunFabric sweeps the rack count, one closed loop per point.
func RunFabric(cfg FabricConfig) ([]FabricPoint, error) {
	var out []FabricPoint
	for _, racks := range cfg.Racks {
		opts := p4ce.Options{
			Nodes:         cfg.Nodes,
			Mode:          p4ce.ModeP4CE,
			Seed:          cfg.Seed,
			PipelineDepth: cfg.Depth,
		}
		if racks > 0 {
			opts.Topology = &p4ce.Topology{Racks: racks, Spines: cfg.Spines}
		}
		cl, leader, err := Steady(opts)
		if err != nil {
			return nil, err
		}
		res, err := ClosedLoop(cl, leader, cfg.ItemSize, cfg.Depth, cfg.Warmup, cfg.Ops)
		if err != nil {
			return nil, err
		}
		st := cl.SwitchStats()
		out = append(out, FabricPoint{
			Racks:      racks,
			Throughput: res.Throughput,
			MeanLat:    res.MeanLat,
			P50Lat:     res.P50Lat,
			P99Lat:     res.P99Lat,
			AcksUp:     st.AcksUpForwarded,
			Partials:   st.PartialsAggregated,
			Events:     cl.EventsProcessed(),
		})
	}
	return out, nil
}
