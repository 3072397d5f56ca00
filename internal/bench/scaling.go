package bench

// Kernel-scaling sweep. RunScaling drives the same sharded workload at
// a range of partition counts (Options.Partitions) and records the
// deterministic outputs: committed ops, sim-time rates, latency
// quantiles and the kernel's event fingerprint. Because the partitioned
// scheduler replays bit-identically at every partition count, every
// deterministic field must be equal across the sweep — Validate
// enforces that on the report — and the only thing partitions may
// change is wall-clock time. Wall time is measured here for the CLI
// table (events/s, speedup) but never enters the JSON report, which
// stays bit-reproducible.

import (
	"fmt"
	"time"

	"p4ce"
)

// ScalingConfig parameterizes the kernel-scaling sweep.
type ScalingConfig struct {
	// Partitions lists the partition counts to sweep, each >= 1.
	Partitions []int `json:"partitions"`
	// Shards is the fixed shard count; parallelism comes from running the
	// same shards on more partitions, not from adding shards.
	Shards int `json:"shards"`
	// Nodes is the machine count per shard, leader included.
	Nodes    int `json:"nodes"`
	ItemSize int `json:"item_size"`
	// Depth is the per-shard closed-loop depth.
	Depth int `json:"depth"`
	// Warmup and Ops are per-shard completion counts.
	Warmup int   `json:"warmup"`
	Ops    int   `json:"ops"`
	Seed   int64 `json:"-"`
}

// DefaultScalingConfig is the EXPERIMENTS.md sweep.
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{
		Partitions: []int{1, 2, 4},
		Shards:     4,
		Nodes:      3,
		ItemSize:   64,
		Depth:      8,
		Warmup:     200,
		Ops:        4000,
		Seed:       1,
	}
}

// ScalingPoint is one measured partition count. All fields except Wall
// are sim-derived and identical across partition counts by the
// determinism guarantee.
type ScalingPoint struct {
	Partitions int `json:"partitions"`
	// AggregateOpsPerS sums the per-shard committed-op rates over each
	// shard's measurement window, in sim time.
	AggregateOpsPerS float64       `json:"aggregate_ops_per_s"`
	MeanLat          time.Duration `json:"mean_ns"`
	P99Lat           time.Duration `json:"p99_ns"`
	// CommittedOps counts every completed proposal across shards,
	// warmup included.
	CommittedOps int `json:"committed_ops"`
	// Events is the kernel fingerprint for the whole run; equal across
	// partition counts or the scheduler is broken.
	Events uint64 `json:"events"`
	// SimDuration is the simulated time the run covered.
	SimDuration time.Duration `json:"sim_duration_ns"`
	// Shards repeats the config's shard count for the CLI table.
	Shards int `json:"-"`
	// Wall is the host wall-clock time for the run. CLI-only: it is the
	// one field that partitions are allowed to change, and it must never
	// be written into a report.
	Wall time.Duration `json:"-"`
}

func (p ScalingPoint) check() error {
	if p.Partitions < 1 || p.AggregateOpsPerS <= 0 || p.CommittedOps <= 0 {
		return fmt.Errorf("p%d: non-positive measurement", p.Partitions)
	}
	return nil
}

// RunScaling sweeps the partition count at a fixed shard count and
// fixed per-shard load.
func RunScaling(cfg ScalingConfig) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, parts := range cfg.Partitions {
		if parts < 1 {
			return nil, fmt.Errorf("bench: scaling partitions must be >= 1, got %d", parts)
		}
		pt, err := runScalingPoint(cfg, parts)
		if err != nil {
			return nil, fmt.Errorf("partitions=%d: %w", parts, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// runScalingPoint measures one partition count. The workload is the
// sharded closed loop, started through Shard.After and driven by Run —
// Step would execute every partition's events on this goroutine.
func runScalingPoint(cfg ScalingConfig, partitions int) (ScalingPoint, error) {
	pt := ScalingPoint{Partitions: partitions, Shards: cfg.Shards}
	wallStart := time.Now()
	cl := p4ce.NewCluster(p4ce.Options{
		Nodes:         cfg.Nodes,
		Shards:        cfg.Shards,
		Mode:          p4ce.ModeP4CE,
		Seed:          cfg.Seed,
		Partitions:    partitions,
		PipelineDepth: cfg.Depth,
	})
	if _, err := cl.RunUntilAllLeaders(500 * time.Millisecond); err != nil {
		return pt, err
	}

	payload := make([]byte, cfg.ItemSize)
	loops := make([]*closedLoop, cfg.Shards)
	for s := range loops {
		leader := cl.ShardLeader(s)
		if leader == nil {
			return pt, &stalledError{stage: "scaling leader lookup"}
		}
		loops[s] = newClosedLoop(cl, leader, payload, cfg.Depth, cfg.Warmup, cfg.Ops)
		cl.Shard(s).After(time.Microsecond, loops[s].start)
	}

	// Run in fixed sim-time windows and inspect the loops only at the
	// quiesce points between Run calls. The window count is decided by
	// sim state alone, so it — and therefore Events and SimDuration — is
	// identical at every partition count.
	const window = 5 * time.Millisecond
	const budget = 2 * time.Second
	for {
		cl.Run(window)
		finished, err := loopsFinished(loops)
		if err != nil {
			return pt, err
		}
		if finished {
			break
		}
		if cl.Now() >= budget {
			return pt, &stalledError{stage: "kernel scaling closed loop"}
		}
	}
	pt.Wall = time.Since(wallStart)

	t, err := totalLoops(loops)
	if err != nil {
		return pt, err
	}
	pt.CommittedOps = t.committed
	pt.AggregateOpsPerS = t.opsPerS
	pt.MeanLat = t.meanLat
	pt.P99Lat = t.p99Lat
	pt.Events = cl.EventsProcessed()
	pt.SimDuration = cl.Now()
	return pt, nil
}
