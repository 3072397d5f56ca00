// Package bench regenerates every table and figure of the paper's
// evaluation (§V): the goodput sweep of Fig. 5, the consensus/s ceiling
// of §V-C, the latency-throughput curves of Fig. 6, the burst latencies
// of Fig. 7, the fail-over times of Table IV, and the design-choice
// ablations DESIGN.md calls out — plus the post-paper sweeps of this
// repo: shard-count scaling and the adaptive-batching trade
// (sharded.go), per-stage latency decomposition (breakdown.go),
// partitioned-kernel scaling (scaling.go), the leaf-spine fabric sweep
// with the hierarchical-aggregation fan-in ablation (fabric.go), and
// SLO alert timelines over the chaos scenarios (timeline.go).
// cmd/p4ce-bench prints the results in the paper's shape;
// bench_test.go wraps them as testing.B benchmarks.
//
// Reports are machine-readable (report.go, SchemaVersion): each section
// holds a runner's config and result rows, whose struct tags are the
// on-disk schema. They are bit-reproducible for a fixed (profile, seed)
// pair: the simulation is deterministic and no wall-clock value is
// recorded, so the committed baselines under bench/ gate regressions
// exactly (compare.go, scripts/bench_compare.sh).
package bench
