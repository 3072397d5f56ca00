package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"p4ce"
	"p4ce/internal/sim"
)

// LatencyPoint is one point of Fig. 6: mean latency at an offered load.
type LatencyPoint struct {
	Mode        p4ce.Mode     `json:"mode"`
	Replicas    int           `json:"replicas"`
	OfferedMps  float64       `json:"offered_mops"`  // offered load, M consensus/s
	AchievedMps float64       `json:"achieved_mops"` // completed, M consensus/s
	MeanLat     time.Duration `json:"mean_ns"`
	P50Lat      time.Duration `json:"p50_ns"`
	P99Lat      time.Duration `json:"p99_ns"`
	P999Lat     time.Duration `json:"p999_ns"`
	MaxLat      time.Duration `json:"max_ns"`
}

func (p LatencyPoint) check() error {
	if p.AchievedMps <= 0 || p.MeanLat <= 0 {
		return fmt.Errorf("%s/r%d@%.2f: non-positive measurement", p.Mode, p.Replicas, p.OfferedMps)
	}
	if !(p.P50Lat <= p.P99Lat && p.P99Lat <= p.P999Lat && p.P999Lat <= p.MaxLat) {
		return fmt.Errorf("%s/r%d@%.2f: percentiles not ordered", p.Mode, p.Replicas, p.OfferedMps)
	}
	return nil
}

// LatencyConfig parameterizes the Fig. 6 sweep.
type LatencyConfig struct {
	Replicas []int `json:"replicas"`
	// OfferedMps are the offered loads to sweep, in M consensus/s.
	OfferedMps []float64     `json:"offered_mops"`
	ItemSize   int           `json:"item_size"`
	Duration   time.Duration `json:"duration_ns"` // measured window per point
	Warmup     time.Duration `json:"warmup_ns"`
	Seed       int64         `json:"-"`
}

// DefaultLatencyConfig sweeps past both systems' knees.
func DefaultLatencyConfig() LatencyConfig {
	return LatencyConfig{
		Replicas:   []int{2, 4},
		OfferedMps: []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2},
		ItemSize:   64,
		Duration:   4 * time.Millisecond,
		Warmup:     2 * time.Millisecond,
		Seed:       1,
	}
}

// RunLatencyThroughput regenerates Fig. 6: open-loop Poisson arrivals at
// each offered load, reporting the mean latency of completed operations.
func RunLatencyThroughput(cfg LatencyConfig) ([]LatencyPoint, error) {
	var out []LatencyPoint
	for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
		for _, replicas := range cfg.Replicas {
			for _, offered := range cfg.OfferedMps {
				pt, err := runOpenLoop(mode, replicas, offered, cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

func runOpenLoop(mode p4ce.Mode, replicas int, offeredMps float64, cfg LatencyConfig) (LatencyPoint, error) {
	pt := LatencyPoint{Mode: mode, Replicas: replicas, OfferedMps: offeredMps}
	// BatchMaxOps 1: Fig. 6/7 reproduce the paper's systems, which do
	// not batch — an overloaded open loop must hit the single-op knee,
	// not the batcher's higher ceiling (that curve is RunBatchSweep's).
	cl, leader, err := Steady(p4ce.Options{Nodes: replicas + 1, Mode: mode, Seed: cfg.Seed, BatchMaxOps: 1})
	if err != nil {
		return pt, err
	}
	// The generator runs on, and times with the clock of, the shard's domain.
	sh := cl.Shard(0)
	var (
		rng         = rand.New(rand.NewSource(cfg.Seed + 17))
		lat         = sim.NewLatencyRecorder(4096)
		sampled     int
		completions int // commits landing inside the window: throughput
		measureT0   = sh.Now() + cfg.Warmup
		measureT1   = measureT0 + cfg.Duration
		horizon     = measureT1 + 20*time.Millisecond // drain allowance
		meanGapSec  = 1 / (offeredMps * 1e6)
		payload     = make([]byte, cfg.ItemSize)
		stopped     bool
	)
	var arrive func()
	arrive = func() {
		if stopped || sh.Now() >= horizon {
			stopped = true
			return
		}
		proposedAt := sh.Now()
		inWindow := proposedAt >= measureT0 && proposedAt < measureT1
		_ = leader.Propose(payload, func(err error) {
			if err != nil {
				return
			}
			now := sh.Now()
			if now >= measureT0 && now < measureT1 {
				completions++
			}
			if inWindow {
				sampled++
				lat.Record(sim.Time(now - proposedAt))
			}
		})
		gap := time.Duration(rng.ExpFloat64() * meanGapSec * float64(time.Second))
		if gap <= 0 {
			gap = time.Nanosecond
		}
		sh.After(gap, arrive)
	}
	arrive()
	for sh.Now() < horizon {
		if !cl.Step() {
			break
		}
	}
	if sampled == 0 {
		return pt, &stalledError{stage: "open loop"}
	}
	pt.AchievedMps = math.Min(float64(completions)/cfg.Duration.Seconds()/1e6, offeredMps)
	pt.MeanLat = time.Duration(lat.Mean())
	pt.P50Lat = time.Duration(lat.Percentile(50))
	pt.P99Lat = time.Duration(lat.Percentile(99))
	pt.P999Lat = time.Duration(lat.Percentile(99.9))
	pt.MaxLat = time.Duration(lat.Max())
	return pt, nil
}

// BurstConfig parameterizes the Fig. 7 sweep.
type BurstConfig struct {
	Replicas int   `json:"replicas"`
	Sizes    []int `json:"burst_sizes"`
	// Rounds is the number of bursts averaged into each point.
	Rounds int   `json:"rounds"`
	Seed   int64 `json:"-"`
}

// DefaultBurstConfig is the paper's Fig. 7: bursts of 1 to 100 requests
// against 2 replicas.
func DefaultBurstConfig() BurstConfig {
	return BurstConfig{Replicas: 2, Sizes: []int{1, 2, 5, 10, 20, 50, 100}, Rounds: 5, Seed: 1}
}

// BurstPoint is one point of Fig. 7: the completion latency of a burst
// of simultaneous 64 B requests.
type BurstPoint struct {
	Mode      p4ce.Mode `json:"mode"`
	Replicas  int       `json:"replicas"`
	BurstSize int       `json:"burst_size"`
	// BurstLat is the time from issuing the burst to the last commit.
	BurstLat time.Duration `json:"burst_lat_ns"`
}

func (p BurstPoint) check() error {
	if p.BurstLat <= 0 {
		return fmt.Errorf("%s/r%d/k%d: non-positive burst latency", p.Mode, p.Replicas, p.BurstSize)
	}
	return nil
}

// RunBurstLatency regenerates Fig. 7. For each burst size the leader
// issues the whole burst at once and waits for every commit; the result
// averages over cfg.Rounds.
func RunBurstLatency(cfg BurstConfig) ([]BurstPoint, error) {
	var out []BurstPoint
	for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
		cl, leader, err := Steady(p4ce.Options{Nodes: cfg.Replicas + 1, Mode: mode, Seed: cfg.Seed, BatchMaxOps: 1})
		if err != nil {
			return nil, err
		}
		payload := make([]byte, 64)
		sh := cl.Shard(0)
		for _, k := range cfg.Sizes {
			var total time.Duration
			for round := 0; round < cfg.Rounds; round++ {
				start := sh.Now()
				var done int
				for i := 0; i < k; i++ {
					if err := leader.Propose(payload, func(err error) {
						if err == nil {
							done++
						}
					}); err != nil {
						return nil, err
					}
				}
				for done < k {
					if !cl.Step() {
						return nil, &stalledError{stage: "burst"}
					}
				}
				total += sh.Now() - start
				cl.Run(100 * time.Microsecond) // quiesce between bursts
			}
			out = append(out, BurstPoint{
				Mode:      mode,
				Replicas:  cfg.Replicas,
				BurstSize: k,
				BurstLat:  total / time.Duration(cfg.Rounds),
			})
		}
	}
	return out, nil
}
