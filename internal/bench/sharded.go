package bench

// Sharding and batching sweeps. RunSharded measures how aggregate
// committed-op goodput scales as independent consensus groups are added
// over the one simulated switch (fixed per-shard load, so ideal scaling
// is linear); RunBatchSweep measures the throughput/latency trade of
// the leader's adaptive batcher under saturation. Both are recorded in
// the machine-readable report (schema v2) and gated by the regression
// comparator.

import (
	"fmt"
	"time"

	"p4ce"
)

// ShardedConfig parameterizes the shard-scaling sweep.
type ShardedConfig struct {
	// Shards lists the shard counts to sweep (the scaling claim compares
	// the first and last entries).
	Shards []int `json:"shards"`
	// Nodes is the machine count per shard, leader included.
	Nodes int `json:"nodes"`
	// ItemSize is the client payload size in bytes.
	ItemSize int `json:"item_size"`
	// Depth is the per-shard closed-loop depth — the fixed per-shard
	// load. It matches the pipeline depth so every shard runs the same
	// unsaturated steady state regardless of the shard count.
	Depth int `json:"depth"`
	// Warmup and Ops are per-shard completion counts.
	Warmup int   `json:"warmup"`
	Ops    int   `json:"ops"`
	Seed   int64 `json:"-"`
}

// DefaultShardedConfig is the EXPERIMENTS.md sweep.
func DefaultShardedConfig() ShardedConfig {
	return ShardedConfig{
		Shards:   []int{1, 2, 4},
		Nodes:    3,
		ItemSize: 512,
		Depth:    16,
		Warmup:   500,
		Ops:      4000,
		Seed:     1,
	}
}

// ShardedPoint is one measured shard count.
type ShardedPoint struct {
	Shards int `json:"shards"`
	// AggregateOpsPerS sums the per-shard committed-op rates — the
	// cluster-wide consensus throughput at this shard count.
	AggregateOpsPerS float64 `json:"aggregate_ops_per_s"`
	// AggregateGoodputGBps is the matching client-payload bandwidth.
	AggregateGoodputGBps float64 `json:"aggregate_goodput_gbps"`
	// MinShardOpsPerS/MaxShardOpsPerS bound the per-shard rates; a wide
	// spread means the shared fabric is no longer fair.
	MinShardOpsPerS float64 `json:"min_shard_ops_per_s"`
	MaxShardOpsPerS float64 `json:"max_shard_ops_per_s"`
	// MeanLat/P99Lat aggregate the per-op latencies across every shard.
	MeanLat time.Duration `json:"mean_ns"`
	P99Lat  time.Duration `json:"p99_ns"`
	// Events is the kernel's determinism fingerprint for the whole run.
	Events uint64 `json:"events"`
}

func (p ShardedPoint) check() error {
	if p.Shards <= 0 || p.AggregateOpsPerS <= 0 {
		return fmt.Errorf("x%d: non-positive rate", p.Shards)
	}
	if p.MinShardOpsPerS > p.MaxShardOpsPerS {
		return fmt.Errorf("x%d: min/max shard rates inverted", p.Shards)
	}
	return nil
}

// ShardedClosedLoop drives every shard's leader with its own depth-deep
// closed loop on the shared kernel, measuring each shard independently
// (per-shard warmup, per-shard measurement window) and aggregating.
func ShardedClosedLoop(cl *p4ce.Cluster, leaders []*p4ce.Node, size, depth, warmup, ops int) (ShardedPoint, error) {
	pt := ShardedPoint{Shards: len(leaders)}
	payload := make([]byte, size)
	loops := make([]*closedLoop, len(leaders))
	for s, l := range leaders {
		loops[s] = newClosedLoop(cl, l, payload, depth, warmup, ops)
	}
	if err := stepLoops(cl, loops); err != nil {
		return pt, err
	}
	t, err := totalLoops(loops)
	if err != nil {
		return pt, err
	}
	pt.AggregateOpsPerS = t.opsPerS
	pt.AggregateGoodputGBps = t.goodputGBps
	pt.MinShardOpsPerS = t.minOpsPerS
	pt.MaxShardOpsPerS = t.maxOpsPerS
	pt.MeanLat = t.meanLat
	pt.P99Lat = t.p99Lat
	pt.Events = cl.EventsProcessed()
	return pt, nil
}

// RunSharded sweeps the shard count at fixed per-shard load.
func RunSharded(cfg ShardedConfig) ([]ShardedPoint, error) {
	var out []ShardedPoint
	for _, shards := range cfg.Shards {
		cl, leaders, err := SteadySharded(p4ce.Options{
			Nodes:         cfg.Nodes,
			Mode:          p4ce.ModeP4CE,
			Seed:          cfg.Seed,
			Shards:        shards,
			PipelineDepth: cfg.Depth,
		})
		if err != nil {
			return nil, err
		}
		pt, err := ShardedClosedLoop(cl, leaders, cfg.ItemSize, cfg.Depth, cfg.Warmup, cfg.Ops)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// BatchSweepConfig parameterizes the adaptive-batching sweep: a single
// group driven past its pipeline depth so the batcher engages, at a
// range of batch-size bounds.
type BatchSweepConfig struct {
	// BatchMaxOps lists the batcher bounds to sweep; 1 disables batching
	// (the baseline: excess proposals ride the NIC send queue).
	BatchMaxOps []int `json:"batch_max_ops"`
	// MaxInflight is the RDMA pipeline depth (the testbed's 16).
	MaxInflight int `json:"max_inflight"`
	// Depth is the closed-loop depth. It must exceed MaxInflight or the
	// batcher never sees a full pipeline.
	Depth    int   `json:"depth"`
	ItemSize int   `json:"item_size"`
	Warmup   int   `json:"warmup"`
	Ops      int   `json:"ops"`
	Seed     int64 `json:"-"`
}

// DefaultBatchSweepConfig is the EXPERIMENTS.md sweep.
func DefaultBatchSweepConfig() BatchSweepConfig {
	return BatchSweepConfig{
		BatchMaxOps: []int{1, 4, 16, 64},
		MaxInflight: 16,
		Depth:       64,
		ItemSize:    64,
		Warmup:      500,
		Ops:         4000,
		Seed:        1,
	}
}

// BatchSweepPoint is one measured batch bound.
type BatchSweepPoint struct {
	BatchMaxOps    int           `json:"batch_max_ops"`
	ThroughputMops float64       `json:"throughput_mops"`
	MeanLat        time.Duration `json:"mean_ns"`
	P50Lat         time.Duration `json:"p50_ns"`
	P99Lat         time.Duration `json:"p99_ns"`
	// MeanOpsPerEntry is the measured average batch size (from the
	// mu.batch_ops_per_entry histogram) — how hard the batcher actually
	// coalesced under this bound.
	MeanOpsPerEntry float64 `json:"mean_ops_per_entry"`
}

func (p BatchSweepPoint) check() error {
	if p.BatchMaxOps <= 0 || p.ThroughputMops <= 0 {
		return fmt.Errorf("b%d: non-positive throughput", p.BatchMaxOps)
	}
	return nil
}

// RunBatchSweep measures the saturated closed loop at each batch bound.
func RunBatchSweep(cfg BatchSweepConfig) ([]BatchSweepPoint, error) {
	var out []BatchSweepPoint
	for _, bound := range cfg.BatchMaxOps {
		cl, leader, err := Steady(p4ce.Options{
			Nodes:         3,
			Mode:          p4ce.ModeP4CE,
			Seed:          cfg.Seed,
			PipelineDepth: cfg.MaxInflight,
			BatchMaxOps:   bound,
			EnableMetrics: true,
		})
		if err != nil {
			return nil, err
		}
		res, err := ClosedLoop(cl, leader, cfg.ItemSize, cfg.Depth, cfg.Warmup, cfg.Ops)
		if err != nil {
			return nil, err
		}
		pt := BatchSweepPoint{
			BatchMaxOps:    bound,
			ThroughputMops: res.Throughput / 1e6,
			MeanLat:        res.MeanLat,
			P50Lat:         res.P50Lat,
			P99Lat:         res.P99Lat,
		}
		h := cl.Metrics().Histogram("mu.batch_ops_per_entry")
		if h.Count() > 0 {
			pt.MeanOpsPerEntry = float64(h.Sum()) / float64(h.Count())
		}
		out = append(out, pt)
	}
	return out, nil
}
