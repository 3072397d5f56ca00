package bench

import (
	"fmt"
	"time"

	"p4ce"
	"p4ce/internal/mu"
	"p4ce/internal/sim"
)

// GoodputPoint is one point of Fig. 5.
type GoodputPoint struct {
	Mode         p4ce.Mode `json:"mode"`
	Replicas     int       `json:"replicas"`
	ItemSize     int       `json:"item_size"`
	GoodputGBps  float64   `json:"goodput_gbps"`    // useful client bytes per second, in GB/s
	ThroughputMs float64   `json:"throughput_mops"` // consensus operations per second, in M/s
	// SimStart/SimEnd bound the measurement window on the virtual clock.
	SimStart time.Duration `json:"sim_start_ns"`
	SimEnd   time.Duration `json:"sim_end_ns"`
}

func (p GoodputPoint) check() error {
	if p.ThroughputMs <= 0 || p.GoodputGBps <= 0 {
		return fmt.Errorf("%s/r%d/s%d: non-positive throughput", p.Mode, p.Replicas, p.ItemSize)
	}
	if p.SimEnd <= p.SimStart {
		return fmt.Errorf("%s/r%d/s%d: sim window not monotone (%d..%d)",
			p.Mode, p.Replicas, p.ItemSize, p.SimStart, p.SimEnd)
	}
	return nil
}

// GoodputConfig parameterizes the Fig. 5 sweep.
type GoodputConfig struct {
	Replicas []int `json:"replicas"` // replica counts (the paper shows 2 and 4)
	Sizes    []int `json:"sizes"`    // item sizes in bytes
	Depth    int   `json:"depth"`    // pipeline depth (the testbed allows 16)
	Warmup   int   `json:"warmup"`
	Ops      int   `json:"ops"`
	Seed     int64 `json:"-"`
	// LeaderCores spreads the leader's request generation across cores
	// for this bandwidth-oriented workload. The paper's Fig. 5 reaches
	// line rate at ≈500 B items (≥20 M requests/s), which a single
	// 435 ns-per-request core cannot produce, while §V-C's 2.3 M/s
	// ceiling is explicitly single-stream; parallel request generation
	// (the machines have 16 cores, and P4CE supports parallel groups)
	// reconciles the two. Set to 1 for the strictly single-core curve.
	LeaderCores int `json:"leader_cores"`
}

// DefaultGoodputConfig mirrors the paper's sweep (each point averages
// Ops operations; the paper uses one million). The zero-allocation hot
// path made operations cheap enough to run 40k per point — 10x the
// original 4k — in comparable wall-clock time.
func DefaultGoodputConfig() GoodputConfig {
	return GoodputConfig{
		Replicas:    []int{2, 4},
		Sizes:       []int{64, 128, 256, 512, 1024, 2048, 4096, 8192},
		Depth:       16,
		Warmup:      500,
		Ops:         40000,
		Seed:        1,
		LeaderCores: 8,
	}
}

// RunGoodput regenerates Fig. 5: write goodput against item size for Mu
// and P4CE.
func RunGoodput(cfg GoodputConfig) ([]GoodputPoint, error) {
	var out []GoodputPoint
	for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
		for _, replicas := range cfg.Replicas {
			for _, size := range cfg.Sizes {
				cores := cfg.LeaderCores
				if cores < 1 {
					cores = 1
				}
				// Each generation core drives its own 16-deep pipeline.
				depth := cfg.Depth * cores
				cl, leader, err := Steady(p4ce.Options{
					Nodes:         replicas + 1,
					Mode:          mode,
					Seed:          cfg.Seed,
					PipelineDepth: depth,
					TuneNode: func(i int, nc *mu.Config) {
						nc.CPUPostCost /= sim.Time(cores)
						nc.CPUAckCost /= sim.Time(cores)
					},
				})
				if err != nil {
					return nil, err
				}
				res, err := ClosedLoop(cl, leader, size, depth, cfg.Warmup, cfg.Ops)
				if err != nil {
					return nil, err
				}
				out = append(out, GoodputPoint{
					Mode:         mode,
					Replicas:     replicas,
					ItemSize:     size,
					GoodputGBps:  res.GoodputBytes / 1e9,
					ThroughputMs: res.Throughput / 1e6,
					SimStart:     res.WindowStart,
					SimEnd:       res.WindowEnd,
				})
			}
		}
	}
	return out, nil
}

// MaxConsensusResult is one row of the §V-C experiment: the maximum
// consensus rate on 64 B values, where the leader's CPU is the
// bottleneck.
type MaxConsensusResult struct {
	Mode          p4ce.Mode `json:"mode"`
	Replicas      int       `json:"replicas"`
	ConsensusPerS float64   `json:"consensus_per_s"`
	LeaderCPU     float64   `json:"leader_cpu"`    // leader core utilization during the run
	SpeedupVsMu   float64   `json:"speedup_vs_mu"` // filled by the caller across modes
}

func (r MaxConsensusResult) check() error {
	if r.ConsensusPerS <= 0 {
		return fmt.Errorf("%s/r%d: non-positive rate", r.Mode, r.Replicas)
	}
	return nil
}

// RunMaxConsensus regenerates §V-C "Maximum number of consensus per
// second": P4CE sustains ≈2.3 M/s regardless of replica count; Mu
// divides by the per-replica request and ACK handling.
func RunMaxConsensus(replicaCounts []int, ops int, seed int64) ([]MaxConsensusResult, error) {
	if len(replicaCounts) == 0 {
		replicaCounts = []int{2, 4}
	}
	var out []MaxConsensusResult
	for _, replicas := range replicaCounts {
		var muRate float64
		for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
			cl, leader, err := Steady(p4ce.Options{
				Nodes: replicas + 1,
				Mode:  mode,
				Seed:  seed,
				// Deep pipeline so the CPU, not the window, binds.
				PipelineDepth: 16,
			})
			if err != nil {
				return nil, err
			}
			res, err := ClosedLoop(cl, leader, 64, 16, ops/10, ops)
			if err != nil {
				return nil, err
			}
			r := MaxConsensusResult{
				Mode:          mode,
				Replicas:      replicas,
				ConsensusPerS: res.Throughput,
				LeaderCPU:     res.LeaderCPU,
			}
			if mode == p4ce.ModeMu {
				muRate = res.Throughput
			} else if muRate > 0 {
				r.SpeedupVsMu = res.Throughput / muRate
			}
			out = append(out, r)
		}
	}
	return out, nil
}
