package bench

// Machine-readable benchmark reports. BuildReport runs the goodput
// sweep, the latency/CDF sweep, the Table IV failover measurements and
// the Mu-vs-P4CE ablation at one of a few fixed profiles, and returns a
// Report that marshals to the committed BENCH_p4ce.json schema. Every
// section records the seed and configuration that produced it, and no
// wall-clock value enters the file, so a report is bit-reproducible:
// same profile + same seed = identical bytes on any machine.

import (
	"encoding/json"
	"fmt"
	"time"

	"p4ce"
)

// SchemaVersion identifies the BENCH_p4ce.json layout; Validate accepts
// no other. Version 2 added the sharded-scaling and batch-sweep
// sections; version 3 added the per-stage latency breakdown section
// (causal tracing); version 4 added the kernel-scaling section
// (partitioned scheduler); version 5 added the fabric-topology section
// (leaf-spine hierarchical aggregation); version 6 added the
// SLO-timeline section (telemetry alert bracketing over the chaos
// scenarios).
const SchemaVersion = 6

// Report is the root of BENCH_p4ce.json.
type Report struct {
	SchemaVersion int               `json:"schema_version"`
	Tool          string            `json:"tool"`
	Profile       string            `json:"profile"`
	Seed          int64             `json:"seed"`
	Goodput       GoodputSection    `json:"goodput"`
	Latency       LatencySection    `json:"latency"`
	Failover      FailoverSection   `json:"failover"`
	Ablation      AblationSection   `json:"ablation"`
	Sharded       ShardedSection    `json:"sharded"`
	BatchSweep    BatchSweepSection `json:"batch_sweep"`
	Breakdown     BreakdownSection  `json:"breakdown"`
	Scaling       ScalingSection    `json:"scaling"`
	Fabric        FabricSection     `json:"fabric"`
	Timeline      TimelineSection   `json:"timeline"`
}

// GoodputSection is the Fig. 5 sweep.
type GoodputSection struct {
	Seed   int64              `json:"seed"`
	Config GoodputConfigJSON  `json:"config"`
	Points []GoodputPointJSON `json:"points"`
}

// GoodputConfigJSON records the sweep parameters.
type GoodputConfigJSON struct {
	Replicas    []int `json:"replicas"`
	Sizes       []int `json:"sizes"`
	Depth       int   `json:"depth"`
	Warmup      int   `json:"warmup"`
	Ops         int   `json:"ops"`
	LeaderCores int   `json:"leader_cores"`
}

// GoodputPointJSON is one measured goodput point.
type GoodputPointJSON struct {
	Mode           string  `json:"mode"`
	Replicas       int     `json:"replicas"`
	ItemSize       int     `json:"item_size"`
	GoodputGBps    float64 `json:"goodput_gbps"`
	ThroughputMops float64 `json:"throughput_mops"`
	SimStartNs     int64   `json:"sim_start_ns"`
	SimEndNs       int64   `json:"sim_end_ns"`
}

// LatencySection is the Fig. 6 sweep with full percentile columns (the
// latency CDF in digest form: p50/p99/p999/max per offered load).
type LatencySection struct {
	Seed   int64              `json:"seed"`
	Config LatencyConfigJSON  `json:"config"`
	Points []LatencyPointJSON `json:"points"`
}

// LatencyConfigJSON records the sweep parameters.
type LatencyConfigJSON struct {
	Replicas   []int     `json:"replicas"`
	OfferedMps []float64 `json:"offered_mops"`
	ItemSize   int       `json:"item_size"`
	DurationNs int64     `json:"duration_ns"`
	WarmupNs   int64     `json:"warmup_ns"`
}

// LatencyPointJSON is one measured open-loop point.
type LatencyPointJSON struct {
	Mode         string  `json:"mode"`
	Replicas     int     `json:"replicas"`
	OfferedMops  float64 `json:"offered_mops"`
	AchievedMops float64 `json:"achieved_mops"`
	MeanNs       int64   `json:"mean_ns"`
	P50Ns        int64   `json:"p50_ns"`
	P99Ns        int64   `json:"p99_ns"`
	P999Ns       int64   `json:"p999_ns"`
	MaxNs        int64   `json:"max_ns"`
}

// FailoverSection is Table IV.
type FailoverSection struct {
	Seed          int64          `json:"seed"`
	Nodes         int            `json:"nodes"`
	AsyncReconfig bool           `json:"async_reconfig"`
	Modes         []FailoverJSON `json:"modes"`
}

// FailoverJSON is one mode's failover times.
type FailoverJSON struct {
	Mode           string `json:"mode"`
	GroupConfigNs  int64  `json:"group_config_ns"`
	ReplicaCrashNs int64  `json:"replica_crash_ns"`
	LeaderCrashNs  int64  `json:"leader_crash_ns"`
	SwitchCrashNs  int64  `json:"switch_crash_ns"`
}

// AblationSection is the §V-C Mu-vs-P4CE maximum-consensus comparison.
type AblationSection struct {
	Seed         int64             `json:"seed"`
	Ops          int               `json:"ops"`
	MaxConsensus []AblationRowJSON `json:"max_consensus"`
}

// AblationRowJSON is one row of the maximum-consensus table.
type AblationRowJSON struct {
	Mode          string  `json:"mode"`
	Replicas      int     `json:"replicas"`
	ConsensusPerS float64 `json:"consensus_per_s"`
	LeaderCPU     float64 `json:"leader_cpu"`
	SpeedupVsMu   float64 `json:"speedup_vs_mu"`
}

// ShardedSection is the shard-scaling sweep (aggregate goodput against
// the number of independent consensus groups on the one switch).
type ShardedSection struct {
	Seed   int64              `json:"seed"`
	Config ShardedConfigJSON  `json:"config"`
	Points []ShardedPointJSON `json:"points"`
}

// ShardedConfigJSON records the sweep parameters.
type ShardedConfigJSON struct {
	Shards   []int `json:"shards"`
	Nodes    int   `json:"nodes"`
	ItemSize int   `json:"item_size"`
	Depth    int   `json:"depth"`
	Warmup   int   `json:"warmup"`
	Ops      int   `json:"ops"`
}

// ShardedPointJSON is one measured shard count.
type ShardedPointJSON struct {
	Shards               int     `json:"shards"`
	AggregateOpsPerS     float64 `json:"aggregate_ops_per_s"`
	AggregateGoodputGBps float64 `json:"aggregate_goodput_gbps"`
	MinShardOpsPerS      float64 `json:"min_shard_ops_per_s"`
	MaxShardOpsPerS      float64 `json:"max_shard_ops_per_s"`
	MeanNs               int64   `json:"mean_ns"`
	P99Ns                int64   `json:"p99_ns"`
	Events               uint64  `json:"events"`
}

// BatchSweepSection is the adaptive-batching sweep (throughput and
// latency against the batch-size bound under saturation).
type BatchSweepSection struct {
	Seed   int64                 `json:"seed"`
	Config BatchSweepConfigJSON  `json:"config"`
	Points []BatchSweepPointJSON `json:"points"`
}

// BatchSweepConfigJSON records the sweep parameters.
type BatchSweepConfigJSON struct {
	BatchMaxOps []int `json:"batch_max_ops"`
	MaxInflight int   `json:"max_inflight"`
	Depth       int   `json:"depth"`
	ItemSize    int   `json:"item_size"`
	Warmup      int   `json:"warmup"`
	Ops         int   `json:"ops"`
}

// BatchSweepPointJSON is one measured batch bound.
type BatchSweepPointJSON struct {
	BatchMaxOps     int     `json:"batch_max_ops"`
	ThroughputMops  float64 `json:"throughput_mops"`
	MeanNs          int64   `json:"mean_ns"`
	P50Ns           int64   `json:"p50_ns"`
	P99Ns           int64   `json:"p99_ns"`
	MeanOpsPerEntry float64 `json:"mean_ops_per_entry"`
}

// BreakdownSection is the per-stage latency decomposition (schema v3).
type BreakdownSection struct {
	Seed   int64                `json:"seed"`
	Config BreakdownConfigJSON  `json:"config"`
	Points []BreakdownPointJSON `json:"points"`
}

// BreakdownConfigJSON records the sweep parameters.
type BreakdownConfigJSON struct {
	Replicas []int `json:"replicas"`
	ItemSize int   `json:"item_size"`
	Depth    int   `json:"depth"`
	Warmup   int   `json:"warmup"`
	Ops      int   `json:"ops"`
}

// BreakdownPointJSON is one (mode, replicas) decomposition. The stages
// arrays follow otrace.StageNames order and each sums exactly to its
// e2e_ns (the quantile op's own boundary diffs — the schema invariant
// Validate enforces).
type BreakdownPointJSON struct {
	Mode     string          `json:"mode"`
	Replicas int             `json:"replicas"`
	ItemSize int             `json:"item_size"`
	Ops      int             `json:"ops"`
	P50      BreakdownOpJSON `json:"p50"`
	P99      BreakdownOpJSON `json:"p99"`
	// HistP50Ns/HistP99Ns (schema v6) are the log2-histogram estimator's
	// view of the same run's commit latency — the calibration columns
	// against the exact traced quantiles above.
	HistP50Ns int64 `json:"hist_p50_ns,omitempty"`
	HistP99Ns int64 `json:"hist_p99_ns,omitempty"`
}

// BreakdownOpJSON is one quantile operation's decomposition.
type BreakdownOpJSON struct {
	E2ENs    int64   `json:"e2e_ns"`
	StagesNs []int64 `json:"stages_ns"`
}

// ScalingSection is the kernel-scaling sweep (schema v4): the same
// sharded workload at a range of partition counts. Every recorded field
// is sim-derived, so the points must agree on everything except the
// partition count itself — the report-level statement of the
// partitioned scheduler's determinism guarantee, which Validate
// enforces. Wall-clock speedup is deliberately absent: it would break
// bit-reproducibility.
type ScalingSection struct {
	Seed   int64              `json:"seed"`
	Config ScalingConfigJSON  `json:"config"`
	Points []ScalingPointJSON `json:"points"`
}

// ScalingConfigJSON records the sweep parameters.
type ScalingConfigJSON struct {
	Partitions []int `json:"partitions"`
	Shards     int   `json:"shards"`
	Nodes      int   `json:"nodes"`
	ItemSize   int   `json:"item_size"`
	Depth      int   `json:"depth"`
	Warmup     int   `json:"warmup"`
	Ops        int   `json:"ops"`
}

// ScalingPointJSON is one measured partition count.
type ScalingPointJSON struct {
	Partitions       int     `json:"partitions"`
	AggregateOpsPerS float64 `json:"aggregate_ops_per_s"`
	MeanNs           int64   `json:"mean_ns"`
	P99Ns            int64   `json:"p99_ns"`
	CommittedOps     int     `json:"committed_ops"`
	Events           uint64  `json:"events"`
	SimDurationNs    int64   `json:"sim_duration_ns"`
}

// FabricSection is the leaf-spine topology sweep (schema v5): commit
// latency against the rack count, with the hierarchical-aggregation
// fan-in saving measured against a FlatGather run of the same workload.
type FabricSection struct {
	Seed   int64             `json:"seed"`
	Config FabricConfigJSON  `json:"config"`
	Points []FabricPointJSON `json:"points"`
}

// FabricConfigJSON records the sweep parameters.
type FabricConfigJSON struct {
	Racks    []int `json:"racks"`
	Spines   int   `json:"spines"`
	Nodes    int   `json:"nodes"`
	ItemSize int   `json:"item_size"`
	Depth    int   `json:"depth"`
	Warmup   int   `json:"warmup"`
	Ops      int   `json:"ops"`
}

// FabricPointJSON is one measured rack count (racks = 0 is the
// single-switch baseline).
type FabricPointJSON struct {
	Racks         int     `json:"racks"`
	ThroughputOps float64 `json:"throughput_ops_per_s"`
	MeanNs        int64   `json:"mean_ns"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
	AcksUp        uint64  `json:"acks_up_forwarded"`
	Partials      uint64  `json:"partials_aggregated"`
	FlatAcksUp    uint64  `json:"flat_acks_up_forwarded"`
	Events        uint64  `json:"events"`
}

// TimelineSection is the SLO-timeline sweep (schema v6): every
// configured chaos scenario replayed against a telemetered cluster,
// each reduced to its alert-log summary — detection and all-clear
// latency relative to the fault window, and whether the log bracketed
// the window at all (Validate demands it did).
type TimelineSection struct {
	Seed   int64               `json:"seed"`
	Config TimelineConfigJSON  `json:"config"`
	Points []TimelinePointJSON `json:"points"`
}

// TimelineConfigJSON records the sweep parameters.
type TimelineConfigJSON struct {
	Scenarios []string `json:"scenarios"`
	ChaosSeed int64    `json:"chaos_seed"`
}

// TimelinePointJSON is one scenario's alert-log summary. Fault bounds
// are relative to applied_at_ns; first_fire_ns and last_clear_ns are
// absolute simulated timestamps.
type TimelinePointJSON struct {
	Scenario     string `json:"scenario"`
	AppliedAtNs  int64  `json:"applied_at_ns"`
	FaultStartNs int64  `json:"fault_start_ns"`
	FaultEndNs   int64  `json:"fault_end_ns"`
	HorizonNs    int64  `json:"horizon_ns"`
	FirstFireNs  int64  `json:"first_fire_ns"`
	DetectionNs  int64  `json:"detection_ns"`
	LastClearNs  int64  `json:"last_clear_ns"`
	AllClearNs   int64  `json:"all_clear_ns"`
	Alerts       int    `json:"alerts"`
	Bracketed    bool   `json:"bracketed"`
	CommittedOps int    `json:"committed_ops"`
	Events       uint64 `json:"events"`
}

// Profile bundles the section configurations of one report flavor.
type Profile struct {
	Name             string
	Goodput          GoodputConfig
	Latency          LatencyConfig
	Failover         FailoverConfig
	AblationReplicas []int
	AblationOps      int
	Sharded          ShardedConfig
	BatchSweep       BatchSweepConfig
	Breakdown        BreakdownConfig
	Scaling          ScalingConfig
	Fabric           FabricConfig
	Timeline         TimelineConfig
}

// FullProfile is the paper-shaped sweep; it takes a few minutes of
// wall-clock time.
func FullProfile() Profile {
	return Profile{
		Name:             "full",
		Goodput:          DefaultGoodputConfig(),
		Latency:          DefaultLatencyConfig(),
		Failover:         DefaultFailoverConfig(),
		AblationReplicas: []int{2, 4},
		AblationOps:      40000,
		Sharded:          DefaultShardedConfig(),
		BatchSweep:       DefaultBatchSweepConfig(),
		Breakdown:        DefaultBreakdownConfig(),
		Scaling:          DefaultScalingConfig(),
		Fabric:           DefaultFabricConfig(),
		Timeline:         DefaultTimelineConfig(),
	}
}

// QuickProfile trims every sweep to a regression-tracking subset. The
// committed baseline (bench/BENCH_baseline.json) is a quick-profile
// report, so CI can regenerate and diff it in seconds.
func QuickProfile() Profile {
	return Profile{
		Name: "quick",
		Goodput: GoodputConfig{
			Replicas:    []int{2, 4},
			Sizes:       []int{64, 512, 4096},
			Depth:       16,
			Warmup:      200,
			Ops:         1000,
			LeaderCores: 8,
		},
		Latency: LatencyConfig{
			Replicas:   []int{2},
			OfferedMps: []float64{0.4, 1.2, 2.0},
			ItemSize:   64,
			Duration:   2 * time.Millisecond,
			Warmup:     time.Millisecond,
		},
		Failover:         FailoverConfig{Nodes: 5},
		AblationReplicas: []int{2, 4},
		AblationOps:      1200,
		Sharded: ShardedConfig{
			Shards:   []int{1, 2, 4},
			Nodes:    3,
			ItemSize: 512,
			Depth:    16,
			Warmup:   200,
			Ops:      2000,
			Seed:     1,
		},
		BatchSweep: BatchSweepConfig{
			BatchMaxOps: []int{1, 16, 64},
			MaxInflight: 16,
			Depth:       64,
			ItemSize:    64,
			Warmup:      200,
			Ops:         2000,
			Seed:        1,
		},
		Breakdown: BreakdownConfig{
			Replicas: []int{2, 4},
			ItemSize: 64,
			Depth:    8,
			Warmup:   200,
			Ops:      2000,
			Seed:     1,
		},
		Scaling: ScalingConfig{
			Partitions: []int{1, 2, 4},
			Shards:     4,
			Nodes:      3,
			ItemSize:   64,
			Depth:      8,
			Warmup:     100,
			Ops:        1000,
			Seed:       1,
		},
		Fabric: FabricConfig{
			Racks:    []int{0, 2, 4},
			Spines:   2,
			Nodes:    9,
			ItemSize: 512,
			Depth:    16,
			Warmup:   200,
			Ops:      1000,
			Seed:     1,
		},
		// Three scenarios spanning the fault families — a replica flap,
		// a full switch reboot, and the fabric's ToR failover — keep the
		// committed baseline regenerable in seconds.
		Timeline: TimelineConfig{
			Scenarios: []string{"replica-flap", "switch-reboot", "tor-failover-under-load"},
			ChaosSeed: 99,
		},
	}
}

// SmokeProfile is the minimal end-to-end pass used by unit tests.
func SmokeProfile() Profile {
	return Profile{
		Name: "smoke",
		Goodput: GoodputConfig{
			Replicas:    []int{2},
			Sizes:       []int{64, 2048},
			Depth:       16,
			Warmup:      100,
			Ops:         400,
			LeaderCores: 8,
		},
		Latency: LatencyConfig{
			Replicas:   []int{2},
			OfferedMps: []float64{0.5, 1.5},
			ItemSize:   64,
			Duration:   time.Millisecond,
			Warmup:     500 * time.Microsecond,
		},
		Failover:         FailoverConfig{Nodes: 3},
		AblationReplicas: []int{2},
		AblationOps:      600,
		Sharded: ShardedConfig{
			Shards:   []int{1, 2},
			Nodes:    3,
			ItemSize: 64,
			Depth:    16,
			Warmup:   100,
			Ops:      400,
			Seed:     1,
		},
		BatchSweep: BatchSweepConfig{
			BatchMaxOps: []int{1, 64},
			MaxInflight: 16,
			Depth:       64,
			ItemSize:    64,
			Warmup:      100,
			Ops:         400,
			Seed:        1,
		},
		Breakdown: BreakdownConfig{
			Replicas: []int{2},
			ItemSize: 64,
			Depth:    8,
			Warmup:   100,
			Ops:      400,
			Seed:     1,
		},
		Scaling: ScalingConfig{
			Partitions: []int{1, 2},
			Shards:     2,
			Nodes:      3,
			ItemSize:   64,
			Depth:      8,
			Warmup:     50,
			Ops:        300,
			Seed:       1,
		},
		Fabric: FabricConfig{
			Racks:    []int{0, 2},
			Spines:   2,
			Nodes:    5,
			ItemSize: 64,
			Depth:    8,
			Warmup:   50,
			Ops:      300,
			Seed:     1,
		},
		// The cheapest scenario (60 ms horizon) keeps the smoke profile
		// fast while still exercising fire-and-clear end to end.
		Timeline: TimelineConfig{
			Scenarios: []string{"replica-flap"},
			ChaosSeed: 99,
		},
	}
}

// ProfileByName resolves "full", "quick" or "smoke".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "full":
		return FullProfile(), nil
	case "quick":
		return QuickProfile(), nil
	case "smoke":
		return SmokeProfile(), nil
	}
	return Profile{}, fmt.Errorf("bench: unknown profile %q", name)
}

// BuildReport runs every section of profile p with the given seed.
func BuildReport(seed int64, p Profile) (*Report, error) {
	p.Goodput.Seed = seed
	p.Latency.Seed = seed
	p.Failover.Seed = seed

	rep := &Report{
		SchemaVersion: SchemaVersion,
		Tool:          "p4ce-bench",
		Profile:       p.Name,
		Seed:          seed,
	}

	gp, err := RunGoodput(p.Goodput)
	if err != nil {
		return nil, fmt.Errorf("goodput: %w", err)
	}
	rep.Goodput = GoodputSection{
		Seed: seed,
		Config: GoodputConfigJSON{
			Replicas:    p.Goodput.Replicas,
			Sizes:       p.Goodput.Sizes,
			Depth:       p.Goodput.Depth,
			Warmup:      p.Goodput.Warmup,
			Ops:         p.Goodput.Ops,
			LeaderCores: p.Goodput.LeaderCores,
		},
	}
	for _, pt := range gp {
		rep.Goodput.Points = append(rep.Goodput.Points, GoodputPointJSON{
			Mode:           pt.Mode.String(),
			Replicas:       pt.Replicas,
			ItemSize:       pt.ItemSize,
			GoodputGBps:    pt.GoodputGBps,
			ThroughputMops: pt.ThroughputMs,
			SimStartNs:     pt.SimStart.Nanoseconds(),
			SimEndNs:       pt.SimEnd.Nanoseconds(),
		})
	}

	lp, err := RunLatencyThroughput(p.Latency)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	rep.Latency = LatencySection{
		Seed: seed,
		Config: LatencyConfigJSON{
			Replicas:   p.Latency.Replicas,
			OfferedMps: p.Latency.OfferedMps,
			ItemSize:   p.Latency.ItemSize,
			DurationNs: p.Latency.Duration.Nanoseconds(),
			WarmupNs:   p.Latency.Warmup.Nanoseconds(),
		},
	}
	for _, pt := range lp {
		rep.Latency.Points = append(rep.Latency.Points, LatencyPointJSON{
			Mode:         pt.Mode.String(),
			Replicas:     pt.Replicas,
			OfferedMops:  pt.OfferedMps,
			AchievedMops: pt.AchievedMps,
			MeanNs:       pt.MeanLat.Nanoseconds(),
			P50Ns:        pt.P50Lat.Nanoseconds(),
			P99Ns:        pt.P99Lat.Nanoseconds(),
			P999Ns:       pt.P999Lat.Nanoseconds(),
			MaxNs:        pt.MaxLat.Nanoseconds(),
		})
	}

	rep.Failover = FailoverSection{
		Seed:          seed,
		Nodes:         p.Failover.Nodes,
		AsyncReconfig: p.Failover.AsyncReconfig,
	}
	for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
		ft, err := RunFailover(mode, p.Failover)
		if err != nil {
			return nil, fmt.Errorf("failover (%v): %w", mode, err)
		}
		rep.Failover.Modes = append(rep.Failover.Modes, FailoverJSON{
			Mode:           mode.String(),
			GroupConfigNs:  ft.GroupConfig.Nanoseconds(),
			ReplicaCrashNs: ft.ReplicaCrash.Nanoseconds(),
			LeaderCrashNs:  ft.LeaderCrash.Nanoseconds(),
			SwitchCrashNs:  ft.SwitchCrash.Nanoseconds(),
		})
	}

	mc, err := RunMaxConsensus(p.AblationReplicas, p.AblationOps, seed)
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	rep.Ablation = AblationSection{Seed: seed, Ops: p.AblationOps}
	for _, row := range mc {
		rep.Ablation.MaxConsensus = append(rep.Ablation.MaxConsensus, AblationRowJSON{
			Mode:          row.Mode.String(),
			Replicas:      row.Replicas,
			ConsensusPerS: row.ConsensusPerS,
			LeaderCPU:     row.LeaderCPU,
			SpeedupVsMu:   row.SpeedupVsMu,
		})
	}

	p.Sharded.Seed = seed
	sp, err := RunSharded(p.Sharded)
	if err != nil {
		return nil, fmt.Errorf("sharded: %w", err)
	}
	rep.Sharded = ShardedSection{
		Seed: seed,
		Config: ShardedConfigJSON{
			Shards:   p.Sharded.Shards,
			Nodes:    p.Sharded.Nodes,
			ItemSize: p.Sharded.ItemSize,
			Depth:    p.Sharded.Depth,
			Warmup:   p.Sharded.Warmup,
			Ops:      p.Sharded.Ops,
		},
	}
	for _, pt := range sp {
		rep.Sharded.Points = append(rep.Sharded.Points, ShardedPointJSON{
			Shards:               pt.Shards,
			AggregateOpsPerS:     pt.AggregateOpsPerS,
			AggregateGoodputGBps: pt.AggregateGoodputGBps,
			MinShardOpsPerS:      pt.MinShardOpsPerS,
			MaxShardOpsPerS:      pt.MaxShardOpsPerS,
			MeanNs:               pt.MeanLat.Nanoseconds(),
			P99Ns:                pt.P99Lat.Nanoseconds(),
			Events:               pt.Events,
		})
	}

	p.BatchSweep.Seed = seed
	bp, err := RunBatchSweep(p.BatchSweep)
	if err != nil {
		return nil, fmt.Errorf("batch sweep: %w", err)
	}
	rep.BatchSweep = BatchSweepSection{
		Seed: seed,
		Config: BatchSweepConfigJSON{
			BatchMaxOps: p.BatchSweep.BatchMaxOps,
			MaxInflight: p.BatchSweep.MaxInflight,
			Depth:       p.BatchSweep.Depth,
			ItemSize:    p.BatchSweep.ItemSize,
			Warmup:      p.BatchSweep.Warmup,
			Ops:         p.BatchSweep.Ops,
		},
	}
	for _, pt := range bp {
		rep.BatchSweep.Points = append(rep.BatchSweep.Points, BatchSweepPointJSON{
			BatchMaxOps:     pt.BatchMaxOps,
			ThroughputMops:  pt.ThroughputMops,
			MeanNs:          pt.MeanLat.Nanoseconds(),
			P50Ns:           pt.P50Lat.Nanoseconds(),
			P99Ns:           pt.P99Lat.Nanoseconds(),
			MeanOpsPerEntry: pt.MeanOpsPerEntry,
		})
	}

	p.Breakdown.Seed = seed
	dp, err := RunBreakdown(p.Breakdown)
	if err != nil {
		return nil, fmt.Errorf("breakdown: %w", err)
	}
	rep.Breakdown = BreakdownSection{
		Seed: seed,
		Config: BreakdownConfigJSON{
			Replicas: p.Breakdown.Replicas,
			ItemSize: p.Breakdown.ItemSize,
			Depth:    p.Breakdown.Depth,
			Warmup:   p.Breakdown.Warmup,
			Ops:      p.Breakdown.Ops,
		},
	}
	for _, pt := range dp {
		rep.Breakdown.Points = append(rep.Breakdown.Points, BreakdownPointJSON{
			Mode:      pt.Mode.String(),
			Replicas:  pt.Replicas,
			ItemSize:  pt.ItemSize,
			Ops:       pt.Ops,
			P50:       BreakdownOpJSON{E2ENs: pt.P50.E2ENs, StagesNs: pt.P50.StageNs[:]},
			P99:       BreakdownOpJSON{E2ENs: pt.P99.E2ENs, StagesNs: pt.P99.StageNs[:]},
			HistP50Ns: pt.HistP50Ns,
			HistP99Ns: pt.HistP99Ns,
		})
	}

	p.Scaling.Seed = seed
	kp, err := RunScaling(p.Scaling)
	if err != nil {
		return nil, fmt.Errorf("scaling: %w", err)
	}
	rep.Scaling = ScalingSection{
		Seed: seed,
		Config: ScalingConfigJSON{
			Partitions: p.Scaling.Partitions,
			Shards:     p.Scaling.Shards,
			Nodes:      p.Scaling.Nodes,
			ItemSize:   p.Scaling.ItemSize,
			Depth:      p.Scaling.Depth,
			Warmup:     p.Scaling.Warmup,
			Ops:        p.Scaling.Ops,
		},
	}
	for _, pt := range kp {
		// pt.Wall is wall-clock and must never enter the report.
		rep.Scaling.Points = append(rep.Scaling.Points, ScalingPointJSON{
			Partitions:       pt.Partitions,
			AggregateOpsPerS: pt.AggregateOpsPerS,
			MeanNs:           pt.MeanLat.Nanoseconds(),
			P99Ns:            pt.P99Lat.Nanoseconds(),
			CommittedOps:     pt.CommittedOps,
			Events:           pt.Events,
			SimDurationNs:    pt.SimDuration.Nanoseconds(),
		})
	}

	p.Fabric.Seed = seed
	fp, err := RunFabric(p.Fabric)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	rep.Fabric = FabricSection{
		Seed: seed,
		Config: FabricConfigJSON{
			Racks:    p.Fabric.Racks,
			Spines:   p.Fabric.Spines,
			Nodes:    p.Fabric.Nodes,
			ItemSize: p.Fabric.ItemSize,
			Depth:    p.Fabric.Depth,
			Warmup:   p.Fabric.Warmup,
			Ops:      p.Fabric.Ops,
		},
	}
	for _, pt := range fp {
		rep.Fabric.Points = append(rep.Fabric.Points, FabricPointJSON{
			Racks:         pt.Racks,
			ThroughputOps: pt.Throughput,
			MeanNs:        pt.MeanLat.Nanoseconds(),
			P50Ns:         pt.P50Lat.Nanoseconds(),
			P99Ns:         pt.P99Lat.Nanoseconds(),
			AcksUp:        pt.AcksUp,
			Partials:      pt.Partials,
			FlatAcksUp:    pt.FlatAcksUp,
			Events:        pt.Events,
		})
	}

	p.Timeline.Seed = seed
	tp, err := RunTimeline(p.Timeline)
	if err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	rep.Timeline = TimelineSection{
		Seed: seed,
		Config: TimelineConfigJSON{
			Scenarios: p.Timeline.Scenarios,
			ChaosSeed: p.Timeline.ChaosSeed,
		},
	}
	for _, pt := range tp {
		rep.Timeline.Points = append(rep.Timeline.Points, TimelinePointJSON{
			Scenario:     pt.Scenario,
			AppliedAtNs:  pt.AppliedAtNs,
			FaultStartNs: pt.FaultStartNs,
			FaultEndNs:   pt.FaultEndNs,
			HorizonNs:    pt.HorizonNs,
			FirstFireNs:  pt.FirstFireNs,
			DetectionNs:  pt.DetectionNs,
			LastClearNs:  pt.LastClearNs,
			AllClearNs:   pt.AllClearNs,
			Alerts:       pt.Alerts,
			Bracketed:    pt.Bracketed,
			CommittedOps: pt.Committed,
			Events:       pt.Events,
		})
	}
	return rep, nil
}

// Marshal renders the report as indented, newline-terminated JSON.
func (r *Report) Marshal() ([]byte, error) {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// ParseReport decodes and structurally validates a report.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: bad report JSON: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate checks the report against the schema's invariants: version,
// recorded seeds, non-empty sections, positive throughput, monotone sim
// timestamps and ordered percentiles.
func (r *Report) Validate() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schema_version = %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	if r.Profile == "" {
		return fmt.Errorf("bench: report missing profile")
	}
	if len(r.Goodput.Points) == 0 {
		return fmt.Errorf("bench: goodput section empty")
	}
	for _, pt := range r.Goodput.Points {
		if pt.ThroughputMops <= 0 || pt.GoodputGBps <= 0 {
			return fmt.Errorf("bench: goodput %s/r%d/s%d: non-positive throughput",
				pt.Mode, pt.Replicas, pt.ItemSize)
		}
		if pt.SimEndNs <= pt.SimStartNs {
			return fmt.Errorf("bench: goodput %s/r%d/s%d: sim window not monotone (%d..%d)",
				pt.Mode, pt.Replicas, pt.ItemSize, pt.SimStartNs, pt.SimEndNs)
		}
	}
	if len(r.Latency.Points) == 0 {
		return fmt.Errorf("bench: latency section empty")
	}
	for _, pt := range r.Latency.Points {
		if pt.AchievedMops <= 0 || pt.MeanNs <= 0 {
			return fmt.Errorf("bench: latency %s/r%d@%.2f: non-positive measurement",
				pt.Mode, pt.Replicas, pt.OfferedMops)
		}
		if !(pt.P50Ns <= pt.P99Ns && pt.P99Ns <= pt.P999Ns && pt.P999Ns <= pt.MaxNs) {
			return fmt.Errorf("bench: latency %s/r%d@%.2f: percentiles not ordered",
				pt.Mode, pt.Replicas, pt.OfferedMops)
		}
	}
	if len(r.Failover.Modes) == 0 {
		return fmt.Errorf("bench: failover section empty")
	}
	for _, ft := range r.Failover.Modes {
		if ft.ReplicaCrashNs <= 0 || ft.LeaderCrashNs <= 0 || ft.SwitchCrashNs <= 0 {
			return fmt.Errorf("bench: failover %s: non-positive times", ft.Mode)
		}
	}
	if len(r.Ablation.MaxConsensus) == 0 {
		return fmt.Errorf("bench: ablation section empty")
	}
	for _, row := range r.Ablation.MaxConsensus {
		if row.ConsensusPerS <= 0 {
			return fmt.Errorf("bench: ablation %s/r%d: non-positive rate", row.Mode, row.Replicas)
		}
	}
	if len(r.Sharded.Points) == 0 {
		return fmt.Errorf("bench: sharded section empty")
	}
	for _, pt := range r.Sharded.Points {
		if pt.Shards <= 0 || pt.AggregateOpsPerS <= 0 {
			return fmt.Errorf("bench: sharded x%d: non-positive rate", pt.Shards)
		}
		if pt.MinShardOpsPerS > pt.MaxShardOpsPerS {
			return fmt.Errorf("bench: sharded x%d: min/max shard rates inverted", pt.Shards)
		}
	}
	if len(r.BatchSweep.Points) == 0 {
		return fmt.Errorf("bench: batch sweep section empty")
	}
	for _, pt := range r.BatchSweep.Points {
		if pt.BatchMaxOps <= 0 || pt.ThroughputMops <= 0 {
			return fmt.Errorf("bench: batch sweep b%d: non-positive throughput", pt.BatchMaxOps)
		}
	}
	if len(r.Breakdown.Points) == 0 {
		return fmt.Errorf("bench: breakdown section empty")
	}
	for _, pt := range r.Breakdown.Points {
		for _, q := range []struct {
			name string
			op   BreakdownOpJSON
		}{{"p50", pt.P50}, {"p99", pt.P99}} {
			name, op := q.name, q.op
			sum := int64(0)
			for _, ns := range op.StagesNs {
				if ns < 0 {
					return fmt.Errorf("bench: breakdown %s/r%d/%s: negative stage", pt.Mode, pt.Replicas, name)
				}
				sum += ns
			}
			if sum != op.E2ENs {
				return fmt.Errorf("bench: breakdown %s/r%d/%s: stages sum %d != e2e %d",
					pt.Mode, pt.Replicas, name, sum, op.E2ENs)
			}
		}
		if pt.P50.E2ENs > pt.P99.E2ENs {
			return fmt.Errorf("bench: breakdown %s/r%d: p50 > p99", pt.Mode, pt.Replicas)
		}
	}
	if len(r.Scaling.Points) == 0 {
		return fmt.Errorf("bench: scaling section empty")
	}
	first := r.Scaling.Points[0]
	for _, pt := range r.Scaling.Points {
		if pt.Partitions < 1 || pt.AggregateOpsPerS <= 0 || pt.CommittedOps <= 0 {
			return fmt.Errorf("bench: scaling p%d: non-positive measurement", pt.Partitions)
		}
		// The partitioned scheduler's contract: partition count must
		// not change the simulation, only wall-clock time — so every
		// sim-derived field matches the first point exactly.
		if pt.Events != first.Events || pt.SimDurationNs != first.SimDurationNs ||
			pt.AggregateOpsPerS != first.AggregateOpsPerS ||
			pt.CommittedOps != first.CommittedOps ||
			pt.MeanNs != first.MeanNs || pt.P99Ns != first.P99Ns {
			return fmt.Errorf("bench: scaling p%d: sim-derived fields diverge from p%d (determinism violated)",
				pt.Partitions, first.Partitions)
		}
	}
	if len(r.Fabric.Points) == 0 {
		return fmt.Errorf("bench: fabric section empty")
	}
	for _, pt := range r.Fabric.Points {
		if pt.ThroughputOps <= 0 || pt.MeanNs <= 0 {
			return fmt.Errorf("bench: fabric racks=%d: non-positive measurement", pt.Racks)
		}
		if pt.Racks <= 1 {
			// Single switch (or single rack): no spine to cross.
			if pt.AcksUp != 0 || pt.Partials != 0 || pt.FlatAcksUp != 0 {
				return fmt.Errorf("bench: fabric racks=%d: spine crossings on a spineless topology", pt.Racks)
			}
			continue
		}
		// Multi-rack: the hierarchy must engage, and the aggregated
		// crossing count must beat the per-replica relay of the flat
		// ablation — the section's whole claim.
		if pt.AcksUp == 0 || pt.Partials == 0 {
			return fmt.Errorf("bench: fabric racks=%d: hierarchical aggregation never engaged", pt.Racks)
		}
		if pt.FlatAcksUp <= pt.AcksUp {
			return fmt.Errorf("bench: fabric racks=%d: flat crossings %d not above hierarchical %d",
				pt.Racks, pt.FlatAcksUp, pt.AcksUp)
		}
	}
	// The breakdown's estimator-calibration columns: the log2
	// histogram's interpolated quantiles must be present and ordered.
	for _, pt := range r.Breakdown.Points {
		if pt.HistP50Ns <= 0 || pt.HistP99Ns < pt.HistP50Ns {
			return fmt.Errorf("bench: breakdown %s/r%d: histogram estimate quantiles missing or unordered (p50=%d p99=%d)",
				pt.Mode, pt.Replicas, pt.HistP50Ns, pt.HistP99Ns)
		}
	}
	if len(r.Timeline.Points) == 0 {
		return fmt.Errorf("bench: timeline section empty")
	}
	for _, pt := range r.Timeline.Points {
		// The section's whole claim: every scenario's alert log
		// brackets its declared fault window.
		if !pt.Bracketed {
			return fmt.Errorf("bench: timeline %s: alert log did not bracket the fault window", pt.Scenario)
		}
		if pt.CommittedOps <= 0 {
			return fmt.Errorf("bench: timeline %s: nothing committed", pt.Scenario)
		}
		// Bracketed implies at least one fire, cleared by the
		// horizon — so transitions pair up and the log is even.
		if pt.Alerts < 2 || pt.Alerts%2 != 0 {
			return fmt.Errorf("bench: timeline %s: %d alert transitions, want an even count >= 2",
				pt.Scenario, pt.Alerts)
		}
		open, close := pt.AppliedAtNs+pt.FaultStartNs, pt.AppliedAtNs+pt.FaultEndNs
		if pt.FirstFireNs <= open || pt.FirstFireNs > close {
			return fmt.Errorf("bench: timeline %s: first fire at %d outside fault window (%d, %d]",
				pt.Scenario, pt.FirstFireNs, open, close)
		}
		if pt.DetectionNs != pt.FirstFireNs-open {
			return fmt.Errorf("bench: timeline %s: detection %d != first fire %d - window open %d",
				pt.Scenario, pt.DetectionNs, pt.FirstFireNs, open)
		}
		if pt.LastClearNs <= pt.FirstFireNs {
			return fmt.Errorf("bench: timeline %s: last clear %d not after first fire %d",
				pt.Scenario, pt.LastClearNs, pt.FirstFireNs)
		}
	}
	return nil
}
