package bench

// Machine-readable benchmark reports. BuildReport runs every sweep of
// one of a few fixed profiles and returns a Report that marshals to the
// committed BENCH_p4ce.json schema. Each section holds the runner's own
// config and result rows, whose struct tags are the on-disk schema.
// Every section records the seed and configuration that produced it,
// and no wall-clock value enters the file, so a report is
// bit-reproducible: same profile + same seed = identical bytes on any
// machine.

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"p4ce"
)

// SchemaVersion identifies the BENCH_p4ce.json layout: the keys of
// Report and of the runner rows and configs it holds. Validate accepts
// no other version; bump it whenever a key is added, renamed or removed.
const SchemaVersion = 8

// Report is the root of BENCH_p4ce.json.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"`
	Profile       string `json:"profile"`
	Seed          int64  `json:"seed"`
	// Goodput is the Fig. 5 sweep.
	Goodput Section[GoodputConfig, GoodputPoint] `json:"goodput"`
	// Latency is the Fig. 6 sweep with full percentile columns (the
	// latency CDF in digest form: p50/p99/p999/max per offered load).
	Latency Section[LatencyConfig, LatencyPoint] `json:"latency"`
	// Burst is the Fig. 7 sweep: completion latency of a burst of
	// simultaneous requests.
	Burst    Section[BurstConfig, BurstPoint] `json:"burst"`
	Failover FailoverSection                  `json:"failover"`
	Ablation AblationSection                  `json:"ablation"`
	// Sharded is aggregate goodput against the number of independent
	// consensus groups on the one switch.
	Sharded Section[ShardedConfig, ShardedPoint] `json:"sharded"`
	// BatchSweep is throughput and latency against the batch-size bound
	// under saturation.
	BatchSweep Section[BatchSweepConfig, BatchSweepPoint] `json:"batch_sweep"`
	// Breakdown is the per-stage latency decomposition.
	Breakdown Section[BreakdownConfig, BreakdownPoint] `json:"breakdown"`
	// Scaling is the same sharded workload at a range of partition
	// counts. Every recorded field is sim-derived, so the points must
	// agree on everything except the partition count itself — the
	// report-level statement of the scheduler's determinism guarantee,
	// which Validate enforces. Wall-clock speedup is deliberately absent:
	// it would break bit-reproducibility.
	Scaling Section[ScalingConfig, ScalingPoint] `json:"scaling"`
	// Fabric is commit latency against the leaf-spine rack count, with
	// the spine-crossing ACK count of the hierarchical aggregation.
	Fabric Section[FabricConfig, FabricPoint] `json:"fabric"`
	// Timeline replays every configured chaos scenario against a
	// telemetered cluster, each reduced to its alert-log summary.
	Timeline Section[TimelineConfig, TimelinePoint] `json:"timeline"`
}

// Section is one sweep: the seed and configuration that produced it
// and the runner's result rows.
type Section[C, P any] struct {
	Seed   int64 `json:"seed"`
	Config C     `json:"config"`
	Points []P   `json:"points"`
}

// FailoverSection is Table IV.
type FailoverSection struct {
	Seed          int64           `json:"seed"`
	Nodes         int             `json:"nodes"`
	AsyncReconfig bool            `json:"async_reconfig"`
	Modes         []FailoverTimes `json:"modes"`
}

// AblationSection is the §V-C Mu-vs-P4CE maximum-consensus comparison
// and the design-choice ablations: §IV-D's ACK-drop placement, Lesson
// 3's asynchronous reconfiguration and §IV-C's min-credit aggregation,
// one row each. Ops is the measured count of every closed-loop run.
type AblationSection struct {
	Seed          int64                  `json:"seed"`
	Ops           int                    `json:"ops"`
	MaxConsensus  []MaxConsensusResult   `json:"max_consensus"`
	AckPlacement  []AckPlacementResult   `json:"ack_placement"`
	AsyncReconfig []AsyncReconfigResult  `json:"async_reconfig"`
	Credit        []CreditAblationResult `json:"credit"`
}

// Profile bundles the section configurations of one report flavor.
type Profile struct {
	Name             string
	Goodput          GoodputConfig
	Latency          LatencyConfig
	Burst            BurstConfig
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

// FullProfile is the paper-shaped sweep that EXPERIMENTS.md reports;
// it takes seconds of wall-clock time.
func FullProfile() Profile {
	return Profile{
		Name:             "full",
		Goodput:          DefaultGoodputConfig(),
		Latency:          DefaultLatencyConfig(),
		Burst:            DefaultBurstConfig(),
		Failover:         DefaultFailoverConfig(),
		AblationReplicas: []int{2, 4},
		AblationOps:      4000,
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
		Burst:            BurstConfig{Replicas: 2, Sizes: []int{1, 10, 100}, Rounds: 3},
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
		Burst:            BurstConfig{Replicas: 2, Sizes: []int{1, 10}, Rounds: 2},
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

// SectionKeys lists the report's sections by json key, in report order.
func SectionKeys() []string {
	keys := make([]string, len(builders))
	for i, b := range builders {
		keys[i] = b.key
	}
	return keys
}

// BuildReport runs the named sections of profile p with the given seed,
// or every section when none is named. A section left out keeps its
// zero value, so only a report of every section validates.
func BuildReport(seed int64, p Profile, keys ...string) (*Report, error) {
	for _, k := range keys {
		if !slices.Contains(SectionKeys(), k) {
			return nil, fmt.Errorf("bench: unknown section %q", k)
		}
	}
	p.Goodput.Seed, p.Latency.Seed, p.Burst.Seed, p.Failover.Seed = seed, seed, seed, seed
	p.Sharded.Seed, p.BatchSweep.Seed, p.Breakdown.Seed = seed, seed, seed
	p.Scaling.Seed, p.Fabric.Seed, p.Timeline.Seed = seed, seed, seed

	rep := &Report{SchemaVersion: SchemaVersion, Tool: "p4ce-bench", Profile: p.Name, Seed: seed}
	for _, b := range builders {
		if len(keys) > 0 && !slices.Contains(keys, b.key) {
			continue
		}
		if err := b.build(rep, p); err != nil {
			return nil, fmt.Errorf("%s: %w", b.key, err)
		}
	}
	return rep, nil
}

// The ablation section's fixed shapes, the paper's: the §IV-D ACK
// placement at 4 replicas, the min-credit run at 2 replicas with one
// slow replica, and Lesson 3's leader fail-over at 3 nodes.
const (
	ackPlacementReplicas = 4
	creditReplicas       = 2
	creditApplyDelay     = 3 * time.Microsecond
	asyncReconfigNodes   = 3
)

// builders runs each section of a profile into a report, in report
// order; key is the section's json key.
var builders = []struct {
	key   string
	build func(r *Report, p Profile) error
}{
	{"goodput", func(r *Report, p Profile) error { return build(&r.Goodput, r.Seed, p.Goodput, RunGoodput) }},
	{"latency", func(r *Report, p Profile) error { return build(&r.Latency, r.Seed, p.Latency, RunLatencyThroughput) }},
	{"burst", func(r *Report, p Profile) error { return build(&r.Burst, r.Seed, p.Burst, RunBurstLatency) }},
	{"failover", func(r *Report, p Profile) error {
		r.Failover = FailoverSection{Seed: r.Seed, Nodes: p.Failover.Nodes, AsyncReconfig: p.Failover.AsyncReconfig}
		for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
			ft, err := RunFailover(mode, p.Failover)
			if err != nil {
				return fmt.Errorf("%v: %w", mode, err)
			}
			r.Failover.Modes = append(r.Failover.Modes, ft)
		}
		return nil
	}},
	{"ablation", func(r *Report, p Profile) error {
		mc, err1 := RunMaxConsensus(p.AblationReplicas, p.AblationOps, r.Seed)
		ack, err2 := RunAckAggregationAblation(ackPlacementReplicas, p.AblationOps, r.Seed)
		async, err3 := RunAsyncReconfigAblation(asyncReconfigNodes, r.Seed)
		credit, err4 := RunCreditAblation(creditReplicas, p.AblationOps, creditApplyDelay, r.Seed)
		r.Ablation = AblationSection{Seed: r.Seed, Ops: p.AblationOps, MaxConsensus: mc,
			AckPlacement:  []AckPlacementResult{ack},
			AsyncReconfig: []AsyncReconfigResult{async},
			Credit:        []CreditAblationResult{credit}}
		return errors.Join(err1, err2, err3, err4)
	}},
	{"sharded", func(r *Report, p Profile) error { return build(&r.Sharded, r.Seed, p.Sharded, RunSharded) }},
	{"batch_sweep", func(r *Report, p Profile) error { return build(&r.BatchSweep, r.Seed, p.BatchSweep, RunBatchSweep) }},
	{"breakdown", func(r *Report, p Profile) error { return build(&r.Breakdown, r.Seed, p.Breakdown, RunBreakdown) }},
	{"scaling", func(r *Report, p Profile) error { return build(&r.Scaling, r.Seed, p.Scaling, RunScaling) }},
	{"fabric", func(r *Report, p Profile) error { return build(&r.Fabric, r.Seed, p.Fabric, RunFabric) }},
	{"timeline", func(r *Report, p Profile) error { return build(&r.Timeline, r.Seed, p.Timeline, RunTimeline) }},
}

// build runs one sweep into s and records the seed and config that
// produced it.
func build[C, P any](s *Section[C, P], seed int64, cfg C, run func(C) ([]P, error)) (err error) {
	s.Seed, s.Config = seed, cfg
	s.Points, err = run(cfg)
	return err
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

// Validate checks the report against the schema's invariants: the
// version, a profile, a non-empty row list in every section, each row's
// own check, and agreement of the scaling points on every sim-derived
// field.
func (r *Report) Validate() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schema_version = %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	if r.Profile == "" {
		return fmt.Errorf("bench: report missing profile")
	}
	for _, err := range []error{
		checkRows("goodput", r.Goodput.Points),
		checkRows("latency", r.Latency.Points),
		checkRows("burst", r.Burst.Points),
		checkRows("failover", r.Failover.Modes),
		checkRows("ablation", r.Ablation.MaxConsensus),
		checkRows("ablation ack_placement", r.Ablation.AckPlacement),
		checkRows("ablation async_reconfig", r.Ablation.AsyncReconfig),
		checkRows("ablation credit", r.Ablation.Credit),
		checkRows("sharded", r.Sharded.Points),
		checkRows("batch_sweep", r.BatchSweep.Points),
		checkRows("breakdown", r.Breakdown.Points),
		checkRows("scaling", r.Scaling.Points),
		checkRows("fabric", r.Fabric.Points),
		checkRows("timeline", r.Timeline.Points),
	} {
		if err != nil {
			return err
		}
	}
	// The partitioned scheduler's contract: partition count must not
	// change the simulation, only wall-clock time — so every sim-derived
	// field matches the first point exactly.
	first := r.Scaling.Points[0]
	for _, pt := range r.Scaling.Points[1:] {
		if pt.Events != first.Events || pt.SimDuration != first.SimDuration ||
			pt.AggregateOpsPerS != first.AggregateOpsPerS ||
			pt.CommittedOps != first.CommittedOps ||
			pt.MeanLat != first.MeanLat || pt.P99Lat != first.P99Lat {
			return fmt.Errorf("bench: scaling p%d: sim-derived fields diverge from p%d (determinism violated)",
				pt.Partitions, first.Partitions)
		}
	}
	return nil
}

// checkRows rejects an empty section and the first row that fails its
// own check.
func checkRows[P interface{ check() error }](name string, rows []P) error {
	if len(rows) == 0 {
		return fmt.Errorf("bench: %s section empty", name)
	}
	for _, row := range rows {
		if err := row.check(); err != nil {
			return fmt.Errorf("bench: %s %w", name, err)
		}
	}
	return nil
}
