package bench

// Report comparison for the regression gate: scripts/bench_compare.sh
// runs `p4ce-bench compare baseline candidate`, which calls
// CompareReports and exits nonzero when any tracked metric is worse by
// the threshold or more.

import (
	"fmt"
	"math"
)

// RegressionThreshold is the fractional degradation that fails the
// gate. The epsilon keeps an exactly-10%-worse metric on the failing
// side of the float comparison.
const (
	RegressionThreshold = 0.10
	thresholdEpsilon    = 1e-9
)

// Regression is one tracked metric that got worse.
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

// direction of a metric.
const (
	higherIsBetter = iota
	lowerIsBetter
)

// check appends a regression when cand is worse than base by at least
// the threshold. A zero base is not comparable and is skipped.
func check(out []Regression, metric string, base, cand float64, dir int) []Regression {
	if base == 0 {
		return out
	}
	if math.IsNaN(cand) {
		return append(out, Regression{Metric: metric, Base: base, Cand: cand, Change: 1})
	}
	var degraded float64
	switch dir {
	case higherIsBetter:
		degraded = (base - cand) / base
	default:
		degraded = (cand - base) / base
	}
	if degraded >= RegressionThreshold-thresholdEpsilon {
		return append(out, Regression{Metric: metric, Base: base, Cand: cand, Change: degraded})
	}
	return out
}

// CompareReports diffs candidate against baseline and returns every
// tracked metric that degraded by RegressionThreshold or more. Points
// present in the baseline but absent from the candidate count as
// regressions; extra candidate points are ignored (they have no
// baseline to regress from).
func CompareReports(base, cand *Report) []Regression {
	var out []Regression

	candGoodput := make(map[string]GoodputPointJSON)
	for _, pt := range cand.Goodput.Points {
		candGoodput[fmt.Sprintf("%s/r%d/s%d", pt.Mode, pt.Replicas, pt.ItemSize)] = pt
	}
	for _, bp := range base.Goodput.Points {
		key := fmt.Sprintf("%s/r%d/s%d", bp.Mode, bp.Replicas, bp.ItemSize)
		cp, ok := candGoodput[key]
		if !ok {
			cp.GoodputGBps, cp.ThroughputMops = math.NaN(), math.NaN()
		}
		out = check(out, "goodput/"+key+"/goodput_gbps", bp.GoodputGBps, cp.GoodputGBps, higherIsBetter)
		out = check(out, "goodput/"+key+"/throughput_mops", bp.ThroughputMops, cp.ThroughputMops, higherIsBetter)
	}

	candLatency := make(map[string]LatencyPointJSON)
	for _, pt := range cand.Latency.Points {
		candLatency[fmt.Sprintf("%s/r%d@%.3f", pt.Mode, pt.Replicas, pt.OfferedMops)] = pt
	}
	for _, bp := range base.Latency.Points {
		key := fmt.Sprintf("%s/r%d@%.3f", bp.Mode, bp.Replicas, bp.OfferedMops)
		cp, ok := candLatency[key]
		if !ok {
			cp.AchievedMops = math.NaN()
			cp.MeanNs, cp.P99Ns = 0, 0 // NaN is float-only; flag via achieved
		}
		out = check(out, "latency/"+key+"/achieved_mops", bp.AchievedMops, cp.AchievedMops, higherIsBetter)
		if ok {
			out = check(out, "latency/"+key+"/mean_ns", float64(bp.MeanNs), float64(cp.MeanNs), lowerIsBetter)
			out = check(out, "latency/"+key+"/p99_ns", float64(bp.P99Ns), float64(cp.P99Ns), lowerIsBetter)
		}
	}

	candFailover := make(map[string]FailoverJSON)
	for _, ft := range cand.Failover.Modes {
		candFailover[ft.Mode] = ft
	}
	for _, bf := range base.Failover.Modes {
		cf, ok := candFailover[bf.Mode]
		if !ok {
			out = append(out, Regression{Metric: "failover/" + bf.Mode, Base: 1, Cand: math.NaN(), Change: 1})
			continue
		}
		out = check(out, "failover/"+bf.Mode+"/group_config_ns", float64(bf.GroupConfigNs), float64(cf.GroupConfigNs), lowerIsBetter)
		out = check(out, "failover/"+bf.Mode+"/replica_crash_ns", float64(bf.ReplicaCrashNs), float64(cf.ReplicaCrashNs), lowerIsBetter)
		out = check(out, "failover/"+bf.Mode+"/leader_crash_ns", float64(bf.LeaderCrashNs), float64(cf.LeaderCrashNs), lowerIsBetter)
		out = check(out, "failover/"+bf.Mode+"/switch_crash_ns", float64(bf.SwitchCrashNs), float64(cf.SwitchCrashNs), lowerIsBetter)
	}

	candAblation := make(map[string]AblationRowJSON)
	for _, row := range cand.Ablation.MaxConsensus {
		candAblation[fmt.Sprintf("%s/r%d", row.Mode, row.Replicas)] = row
	}
	for _, br := range base.Ablation.MaxConsensus {
		key := fmt.Sprintf("%s/r%d", br.Mode, br.Replicas)
		cr, ok := candAblation[key]
		if !ok {
			cr.ConsensusPerS = math.NaN()
		}
		out = check(out, "ablation/"+key+"/consensus_per_s", br.ConsensusPerS, cr.ConsensusPerS, higherIsBetter)
	}

	candSharded := make(map[int]ShardedPointJSON)
	for _, pt := range cand.Sharded.Points {
		candSharded[pt.Shards] = pt
	}
	for _, bp := range base.Sharded.Points {
		key := fmt.Sprintf("x%d", bp.Shards)
		cp, ok := candSharded[bp.Shards]
		if !ok {
			cp.AggregateOpsPerS = math.NaN()
		}
		out = check(out, "sharded/"+key+"/aggregate_ops_per_s", bp.AggregateOpsPerS, cp.AggregateOpsPerS, higherIsBetter)
		if ok {
			out = check(out, "sharded/"+key+"/mean_ns", float64(bp.MeanNs), float64(cp.MeanNs), lowerIsBetter)
			out = check(out, "sharded/"+key+"/min_shard_ops_per_s", bp.MinShardOpsPerS, cp.MinShardOpsPerS, higherIsBetter)
		}
	}

	candBatch := make(map[int]BatchSweepPointJSON)
	for _, pt := range cand.BatchSweep.Points {
		candBatch[pt.BatchMaxOps] = pt
	}
	for _, bp := range base.BatchSweep.Points {
		key := fmt.Sprintf("b%d", bp.BatchMaxOps)
		cp, ok := candBatch[bp.BatchMaxOps]
		if !ok {
			cp.ThroughputMops = math.NaN()
		}
		out = check(out, "batch_sweep/"+key+"/throughput_mops", bp.ThroughputMops, cp.ThroughputMops, higherIsBetter)
		if ok {
			out = check(out, "batch_sweep/"+key+"/p99_ns", float64(bp.P99Ns), float64(cp.P99Ns), lowerIsBetter)
		}
	}

	// Only the breakdown's end-to-end quantiles gate: individual stage
	// durations trade against each other under legitimate changes (a
	// faster switch pipeline shifts time into gather-wait), so per-stage
	// thresholds would flag improvements as regressions.
	candBreakdown := make(map[string]BreakdownPointJSON)
	for _, pt := range cand.Breakdown.Points {
		candBreakdown[fmt.Sprintf("%s/r%d", pt.Mode, pt.Replicas)] = pt
	}
	for _, bp := range base.Breakdown.Points {
		key := fmt.Sprintf("%s/r%d", bp.Mode, bp.Replicas)
		cp, ok := candBreakdown[key]
		if !ok {
			out = append(out, Regression{Metric: "breakdown/" + key, Base: 1, Cand: math.NaN(), Change: 1})
			continue
		}
		out = check(out, "breakdown/"+key+"/p50_e2e_ns", float64(bp.P50.E2ENs), float64(cp.P50.E2ENs), lowerIsBetter)
		out = check(out, "breakdown/"+key+"/p99_e2e_ns", float64(bp.P99.E2ENs), float64(cp.P99.E2ENs), lowerIsBetter)
	}

	// Only sim-time rates and latencies of the kernel-scaling sweep gate —
	// the wall-clock speedup that motivates it is machine-dependent and
	// never enters a report.
	candScaling := make(map[int]ScalingPointJSON)
	for _, pt := range cand.Scaling.Points {
		candScaling[pt.Partitions] = pt
	}
	for _, bp := range base.Scaling.Points {
		key := fmt.Sprintf("p%d", bp.Partitions)
		cp, ok := candScaling[bp.Partitions]
		if !ok {
			cp.AggregateOpsPerS = math.NaN()
		}
		out = check(out, "scaling/"+key+"/aggregate_ops_per_s", bp.AggregateOpsPerS, cp.AggregateOpsPerS, higherIsBetter)
		if ok {
			out = check(out, "scaling/"+key+"/mean_ns", float64(bp.MeanNs), float64(cp.MeanNs), lowerIsBetter)
			out = check(out, "scaling/"+key+"/p99_ns", float64(bp.P99Ns), float64(cp.P99Ns), lowerIsBetter)
		}
	}

	// The fabric's spine-crossing counters gate the hierarchical
	// aggregation itself: AcksUp growing toward FlatAcksUp means the leaf
	// partial counting stopped absorbing ACKs.
	candFabric := make(map[int]FabricPointJSON)
	for _, pt := range cand.Fabric.Points {
		candFabric[pt.Racks] = pt
	}
	for _, bp := range base.Fabric.Points {
		key := fmt.Sprintf("racks%d", bp.Racks)
		cp, ok := candFabric[bp.Racks]
		if !ok {
			cp.ThroughputOps = math.NaN()
		}
		out = check(out, "fabric/"+key+"/throughput_ops_per_s", bp.ThroughputOps, cp.ThroughputOps, higherIsBetter)
		if ok {
			out = check(out, "fabric/"+key+"/mean_ns", float64(bp.MeanNs), float64(cp.MeanNs), lowerIsBetter)
			out = check(out, "fabric/"+key+"/p99_ns", float64(bp.P99Ns), float64(cp.P99Ns), lowerIsBetter)
			out = check(out, "fabric/"+key+"/acks_up_forwarded", float64(bp.AcksUp), float64(cp.AcksUp), lowerIsBetter)
		}
	}

	// The SLO timeline's detection latency (fault open to first page) and
	// all-clear latency (fault open to the last alert standing down)
	// gate: an observability change that makes the pager slower to fire —
	// or slower to shut up — is a regression even when every alert still
	// brackets its window.
	candTimeline := make(map[string]TimelinePointJSON)
	for _, pt := range cand.Timeline.Points {
		candTimeline[pt.Scenario] = pt
	}
	for _, bp := range base.Timeline.Points {
		cp, ok := candTimeline[bp.Scenario]
		if !ok {
			out = append(out, Regression{Metric: "timeline/" + bp.Scenario, Base: 1, Cand: math.NaN(), Change: 1})
			continue
		}
		out = check(out, "timeline/"+bp.Scenario+"/detection_ns", float64(bp.DetectionNs), float64(cp.DetectionNs), lowerIsBetter)
		out = check(out, "timeline/"+bp.Scenario+"/all_clear_ns", float64(bp.AllClearNs), float64(cp.AllClearNs), lowerIsBetter)
	}
	return out
}
