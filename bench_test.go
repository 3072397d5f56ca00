package p4ce_test

// testing.B entry points for every experiment in the paper's evaluation.
// Each benchmark drives the deterministic simulation for b.N consensus
// operations (or b.N measurement rounds for the fail-over numbers) and
// reports the simulated performance through custom metrics:
//
//	sim-consensus/s   simulated consensus operations per second
//	sim-goodput-GB/s  simulated client payload bandwidth
//	sim-latency-us    simulated mean commit latency
//	sim-failover-ms   simulated fail-over time
//
// (ns/op measures host wall-clock per simulated operation and is only a
// statement about the simulator's own speed.)
//
// The mapping to the paper:
//
//	BenchmarkFig5Goodput*      → Figure 5
//	BenchmarkMaxConsensus*     → §V-C maximum consensus/s
//	BenchmarkFig6Latency*      → Figure 6 (one representative point)
//	BenchmarkFig7Burst*        → Figure 7
//	BenchmarkFailover*         → Table IV
//	BenchmarkAckPlacement      → §IV-D Lesson (ablation)

import (
	"fmt"
	"testing"
	"time"

	"p4ce"
	"p4ce/internal/bench"
)

// runClosedLoop is the shared harness for throughput-style benchmarks.
func runClosedLoop(b *testing.B, mode p4ce.Mode, replicas, size, depth int) {
	b.Helper()
	cl, leader, err := bench.Steady(p4ce.Options{
		Nodes: replicas + 1,
		Mode:  mode,
		Seed:  1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ops := b.N
	if ops < 100 {
		ops = 100
	}
	res, err := bench.ClosedLoop(cl, leader, size, depth, ops/10, ops)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Throughput, "sim-consensus/s")
	b.ReportMetric(res.GoodputBytes/1e9, "sim-goodput-GB/s")
	b.ReportMetric(float64(res.MeanLat)/float64(time.Microsecond), "sim-latency-us")
}

func BenchmarkMaxConsensus(b *testing.B) {
	for _, replicas := range []int{2, 4} {
		for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
			b.Run(fmt.Sprintf("%v/%dreplicas/64B", mode, replicas), func(b *testing.B) {
				runClosedLoop(b, mode, replicas, 64, 16)
			})
		}
	}
}

func BenchmarkFig5Goodput(b *testing.B) {
	for _, replicas := range []int{2, 4} {
		for _, size := range []int{512, 4096} {
			for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
				b.Run(fmt.Sprintf("%v/%dreplicas/%dB", mode, replicas, size), func(b *testing.B) {
					runClosedLoop(b, mode, replicas, size, 128)
				})
			}
		}
	}
}

func BenchmarkFig6Latency(b *testing.B) {
	// One representative low-load point per system: the paper's "below
	// the knee P4CE's latency is ≈10% lower" claim.
	for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
		b.Run(fmt.Sprintf("%v/2replicas/lowload", mode), func(b *testing.B) {
			runClosedLoop(b, mode, 2, 64, 1)
		})
	}
}

func BenchmarkFig7Burst(b *testing.B) {
	for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
		for _, burst := range []int{10, 100} {
			b.Run(fmt.Sprintf("%v/burst%d", mode, burst), func(b *testing.B) {
				cl, leader, err := bench.Steady(p4ce.Options{Nodes: 3, Mode: mode, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				payload := make([]byte, 64)
				sh := cl.Shard(0)
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := sh.Now()
					done := 0
					for j := 0; j < burst; j++ {
						if err := leader.Propose(payload, func(err error) {
							if err == nil {
								done++
							}
						}); err != nil {
							b.Fatal(err)
						}
					}
					for done < burst {
						if !cl.Step() {
							b.Fatal("stalled")
						}
					}
					total += sh.Now() - start
					cl.Run(100 * time.Microsecond)
				}
				b.ReportMetric(float64(total)/float64(b.N)/float64(time.Microsecond), "sim-burst-latency-us")
			})
		}
	}
}

func BenchmarkFailover(b *testing.B) {
	cfg := bench.DefaultFailoverConfig()
	for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
		b.Run(mode.String(), func(b *testing.B) {
			var acc bench.FailoverTimes
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				ft, err := bench.RunFailover(mode, cfg)
				if err != nil {
					b.Fatal(err)
				}
				acc.ReplicaCrash += ft.ReplicaCrash
				acc.LeaderCrash += ft.LeaderCrash
				acc.SwitchCrash += ft.SwitchCrash
				acc.GroupConfig += ft.GroupConfig
			}
			n := time.Duration(b.N)
			b.ReportMetric(float64(acc.LeaderCrash/n)/float64(time.Millisecond), "sim-leader-failover-ms")
			b.ReportMetric(float64(acc.ReplicaCrash/n)/float64(time.Millisecond), "sim-replica-failover-ms")
			b.ReportMetric(float64(acc.SwitchCrash/n)/float64(time.Millisecond), "sim-switch-failover-ms")
			if mode == p4ce.ModeP4CE {
				b.ReportMetric(float64(acc.GroupConfig/n)/float64(time.Millisecond), "sim-group-config-ms")
			}
		})
	}
}

func BenchmarkAckPlacement(b *testing.B) {
	ops := b.N
	if ops < 500 {
		ops = 500
	}
	res, err := bench.RunAckAggregationAblation(4, ops, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.IngressDropRate, "sim-ingress-drop-consensus/s")
	b.ReportMetric(res.EgressDropRate, "sim-egress-drop-consensus/s")
	b.ReportMetric(res.Speedup, "sim-speedup")
}
