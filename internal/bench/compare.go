package bench

// Report comparison for the regression gate: scripts/bench_compare.sh
// runs `p4ce-bench compare baseline candidate`, which calls
// CompareReports and exits nonzero when any tracked metric is worse by
// the threshold or more.

import (
	"fmt"
	"math"
	"slices"
)

// RegressionThreshold is the fractional degradation that fails the
// gate. The epsilon keeps an exactly-10%-worse metric on the failing
// side of the float comparison.
const (
	RegressionThreshold = 0.10
	thresholdEpsilon    = 1e-9
)

// Regression is one tracked metric that got worse, or one baseline row
// missing from the candidate (Cand is NaN).
type Regression struct {
	Metric string // e.g. "goodput/P4CE/r2/s64/goodput_gbps"
	Base   float64
	Cand   float64
	Change float64 // signed fractional change, positive = degraded
}

func (r Regression) String() string {
	if math.IsNaN(r.Cand) {
		return fmt.Sprintf("%-48s missing from candidate", r.Metric)
	}
	return fmt.Sprintf("%-48s %.4g -> %.4g (%+.1f%%)", r.Metric, r.Base, r.Cand, r.Change*100)
}

// gate is one tracked metric of a row type: its name, the direction in
// which it must not degrade, and how to read it.
type gate[P any] struct {
	metric        string
	lowerIsBetter bool
	get           func(P) float64
}

func higher[P any](metric string, get func(P) float64) gate[P] { return gate[P]{metric, false, get} }
func lower[P any](metric string, get func(P) float64) gate[P]  { return gate[P]{metric, true, get} }

// compareRows matches candidate rows to baseline rows by key and checks
// every gate on each pair. A baseline row absent from the candidate is
// one regression named section/key; extra candidate rows are ignored
// (they have no baseline to regress from). A zero base is not
// comparable and is skipped.
func compareRows[P any](name string, base, cand []P, key func(P) string, gates ...gate[P]) []Regression {
	var out []Regression
	byKey := make(map[string]P, len(cand))
	for _, row := range cand {
		byKey[key(row)] = row
	}
	for _, b := range base {
		k := key(b)
		prefix := name + "/" + k
		c, ok := byKey[k]
		if !ok {
			out = append(out, Regression{Metric: prefix, Cand: math.NaN(), Change: 1})
			continue
		}
		for _, g := range gates {
			bv, cv := g.get(b), g.get(c)
			if bv == 0 {
				continue
			}
			degraded := (bv - cv) / bv
			if g.lowerIsBetter {
				degraded = (cv - bv) / bv
			}
			if degraded >= RegressionThreshold-thresholdEpsilon {
				out = append(out, Regression{Metric: prefix + "/" + g.metric, Base: bv, Cand: cv, Change: degraded})
			}
		}
	}
	return out
}

// CompareReports diffs candidate against baseline and returns every
// tracked metric that degraded by RegressionThreshold or more, plus one
// regression per baseline row the candidate lacks. The kernel-event
// count of a sharded, scaling, fabric or timeline row gates like a
// sim-time metric: it is deterministic, and it is the simulator's own
// cost per simulated op.
func CompareReports(base, cand *Report) []Regression {
	return slices.Concat(
		compareRows("goodput", base.Goodput.Points, cand.Goodput.Points,
			func(p GoodputPoint) string { return fmt.Sprintf("%s/r%d/s%d", p.Mode, p.Replicas, p.ItemSize) },
			higher("goodput_gbps", func(p GoodputPoint) float64 { return p.GoodputGBps }),
			higher("throughput_mops", func(p GoodputPoint) float64 { return p.ThroughputMs })),
		compareRows("latency", base.Latency.Points, cand.Latency.Points,
			func(p LatencyPoint) string { return fmt.Sprintf("%s/r%d@%.3f", p.Mode, p.Replicas, p.OfferedMps) },
			higher("achieved_mops", func(p LatencyPoint) float64 { return p.AchievedMps }),
			lower("mean_ns", func(p LatencyPoint) float64 { return float64(p.MeanLat) }),
			lower("p99_ns", func(p LatencyPoint) float64 { return float64(p.P99Lat) })),
		compareRows("burst", base.Burst.Points, cand.Burst.Points,
			func(p BurstPoint) string { return fmt.Sprintf("%s/r%d/k%d", p.Mode, p.Replicas, p.BurstSize) },
			lower("burst_lat_ns", func(p BurstPoint) float64 { return float64(p.BurstLat) })),
		compareRows("failover", base.Failover.Modes, cand.Failover.Modes,
			func(f FailoverTimes) string { return f.Mode.String() },
			lower("group_config_ns", func(f FailoverTimes) float64 { return float64(f.GroupConfig) }),
			lower("replica_crash_ns", func(f FailoverTimes) float64 { return float64(f.ReplicaCrash) }),
			lower("leader_crash_ns", func(f FailoverTimes) float64 { return float64(f.LeaderCrash) }),
			lower("switch_crash_ns", func(f FailoverTimes) float64 { return float64(f.SwitchCrash) })),
		compareRows("ablation", base.Ablation.MaxConsensus, cand.Ablation.MaxConsensus,
			func(r MaxConsensusResult) string { return fmt.Sprintf("%s/r%d", r.Mode, r.Replicas) },
			higher("consensus_per_s", func(r MaxConsensusResult) float64 { return r.ConsensusPerS })),
		// The ablations gate the side the paper's design wins on: the
		// ingress-drop rate, the asynchronous fail-over and the slow
		// group's sustained rate.
		compareRows("ablation/ack_placement", base.Ablation.AckPlacement, cand.Ablation.AckPlacement,
			func(r AckPlacementResult) string { return fmt.Sprintf("r%d", r.Replicas) },
			higher("ingress_drop_per_s", func(r AckPlacementResult) float64 { return r.IngressDropRate })),
		compareRows("ablation/async_reconfig", base.Ablation.AsyncReconfig, cand.Ablation.AsyncReconfig,
			func(r AsyncReconfigResult) string { return fmt.Sprintf("n%d", r.Nodes) },
			lower("async_failover_ns", func(r AsyncReconfigResult) float64 { return float64(r.AsyncFailover) })),
		compareRows("ablation/credit", base.Ablation.Credit, cand.Ablation.Credit,
			func(r CreditAblationResult) string { return fmt.Sprintf("r%d", r.Replicas) },
			higher("throughput_ops_per_s", func(r CreditAblationResult) float64 { return r.ThroughputOps })),
		compareRows("sharded", base.Sharded.Points, cand.Sharded.Points,
			func(p ShardedPoint) string { return fmt.Sprintf("x%d", p.Shards) },
			higher("aggregate_ops_per_s", func(p ShardedPoint) float64 { return p.AggregateOpsPerS }),
			lower("mean_ns", func(p ShardedPoint) float64 { return float64(p.MeanLat) }),
			higher("min_shard_ops_per_s", func(p ShardedPoint) float64 { return p.MinShardOpsPerS }),
			lower("events", func(p ShardedPoint) float64 { return float64(p.Events) })),
		compareRows("batch_sweep", base.BatchSweep.Points, cand.BatchSweep.Points,
			func(p BatchSweepPoint) string { return fmt.Sprintf("b%d", p.BatchMaxOps) },
			higher("throughput_mops", func(p BatchSweepPoint) float64 { return p.ThroughputMops }),
			lower("p99_ns", func(p BatchSweepPoint) float64 { return float64(p.P99Lat) })),
		// Only the breakdown's end-to-end quantiles gate: individual stage
		// durations trade against each other under legitimate changes (a
		// faster switch pipeline shifts time into gather-wait), so
		// per-stage thresholds would flag improvements as regressions.
		compareRows("breakdown", base.Breakdown.Points, cand.Breakdown.Points,
			func(p BreakdownPoint) string { return fmt.Sprintf("%s/r%d", p.Mode, p.Replicas) },
			lower("p50_e2e_ns", func(p BreakdownPoint) float64 { return float64(p.P50.E2ENs) }),
			lower("p99_e2e_ns", func(p BreakdownPoint) float64 { return float64(p.P99.E2ENs) })),
		// Only sim-time rates and latencies of the kernel-scaling sweep
		// gate — the wall-clock speedup that motivates it is
		// machine-dependent and never enters a report.
		compareRows("scaling", base.Scaling.Points, cand.Scaling.Points,
			func(p ScalingPoint) string { return fmt.Sprintf("p%d", p.Partitions) },
			higher("aggregate_ops_per_s", func(p ScalingPoint) float64 { return p.AggregateOpsPerS }),
			lower("mean_ns", func(p ScalingPoint) float64 { return float64(p.MeanLat) }),
			lower("p99_ns", func(p ScalingPoint) float64 { return float64(p.P99Lat) }),
			lower("events", func(p ScalingPoint) float64 { return float64(p.Events) })),
		// The fabric's spine-crossing counter gates the hierarchical
		// aggregation itself: AcksUp growing toward FlatAcksUp means the
		// leaf partial counting stopped absorbing ACKs.
		compareRows("fabric", base.Fabric.Points, cand.Fabric.Points,
			func(p FabricPoint) string { return fmt.Sprintf("racks%d", p.Racks) },
			higher("throughput_ops_per_s", func(p FabricPoint) float64 { return p.Throughput }),
			lower("mean_ns", func(p FabricPoint) float64 { return float64(p.MeanLat) }),
			lower("p99_ns", func(p FabricPoint) float64 { return float64(p.P99Lat) }),
			lower("acks_up_forwarded", func(p FabricPoint) float64 { return float64(p.AcksUp) }),
			lower("events", func(p FabricPoint) float64 { return float64(p.Events) })),
		// The SLO timeline's detection latency (fault open to first page)
		// and all-clear latency (fault open to the last alert standing
		// down) gate: an observability change that makes the pager slower
		// to fire — or slower to shut up — is a regression even when every
		// alert still brackets its window.
		compareRows("timeline", base.Timeline.Points, cand.Timeline.Points,
			func(p TimelinePoint) string { return p.Scenario },
			lower("detection_ns", func(p TimelinePoint) float64 { return float64(p.DetectionNs) }),
			lower("all_clear_ns", func(p TimelinePoint) float64 { return float64(p.AllClearNs) }),
			lower("events", func(p TimelinePoint) float64 { return float64(p.Events) })),
	)
}
