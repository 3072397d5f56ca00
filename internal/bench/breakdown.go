package bench

// Per-stage latency decomposition (the tracing tentpole's benchmark
// surface). A closed-loop run with causal tracing enabled yields one
// otrace.OpRecord per committed operation; the decomposition reports,
// for the operation sitting at each end-to-end latency quantile, that
// operation's OWN six stage durations. Quantiles of individual stages
// are not additive (the p99 of each stage rarely belongs to the same
// operation), but one operation's stage durations are successive
// boundary differences, so they sum exactly to its end-to-end latency —
// the property the report schema validates.

import (
	"fmt"
	"math"
	"sort"

	"p4ce"
	"p4ce/internal/otrace"
)

// BreakdownConfig tunes the decomposition sweep.
type BreakdownConfig struct {
	// Replicas lists the replica counts (cluster size minus the leader).
	Replicas []int `json:"replicas"`
	// ItemSize is the client payload size.
	ItemSize int `json:"item_size"`
	// Depth is the closed-loop pipeline depth. Keep it below the
	// leader's MaxInflight so the adaptive batcher stays out of the way
	// and every operation is its own traced entry.
	Depth int `json:"depth"`
	// Warmup completions are discarded; Ops completions are measured.
	Warmup int   `json:"warmup"`
	Ops    int   `json:"ops"`
	Seed   int64 `json:"-"`
}

// DefaultBreakdownConfig mirrors the paper's common operating point
// (64 B items, 3- and 5-machine clusters).
func DefaultBreakdownConfig() BreakdownConfig {
	return BreakdownConfig{
		Replicas: []int{2, 4},
		ItemSize: 64,
		Depth:    8,
		Warmup:   200,
		Ops:      4000,
		Seed:     1,
	}
}

// BreakdownOp is the decomposition of one operation: the six stage
// durations (otrace.StageNames order) of the operation at a latency
// quantile. The stages sum exactly to E2ENs.
type BreakdownOp struct {
	E2ENs   int64    `json:"e2e_ns"`
	StageNs [6]int64 `json:"stages_ns"`
}

// BreakdownPoint is one (mode, replicas) decomposition. HistP50Ns and
// HistP99Ns are the same run's commit-latency quantiles as the metrics
// registry's log2 histogram estimates them (nearest rank with
// within-bucket interpolation, factor-of-2 error bound) — the
// calibration column that shows how close the cheap always-on
// estimator tracks the exact traced quantiles. The two samples differ
// slightly by construction: the histogram sees every commit including
// warmup, the trace quantiles only the measured window, and commit
// latency excludes the client-side stages of the end-to-end span.
type BreakdownPoint struct {
	Mode      p4ce.Mode   `json:"mode"`
	Replicas  int         `json:"replicas"`
	ItemSize  int         `json:"item_size"`
	Ops       int         `json:"ops"` // operations actually measured
	P50       BreakdownOp `json:"p50"`
	P99       BreakdownOp `json:"p99"`
	HistP50Ns int64       `json:"hist_p50_ns,omitempty"`
	HistP99Ns int64       `json:"hist_p99_ns,omitempty"`
}

// check enforces the schema invariants: each quantile op's stages are
// non-negative and sum exactly to its e2e_ns, p50 <= p99, and the
// histogram estimates are present and ordered.
func (p BreakdownPoint) check() error {
	for _, q := range []struct {
		name string
		op   BreakdownOp
	}{{"p50", p.P50}, {"p99", p.P99}} {
		sum := int64(0)
		for _, ns := range q.op.StageNs {
			if ns < 0 {
				return fmt.Errorf("%s/r%d/%s: negative stage", p.Mode, p.Replicas, q.name)
			}
			sum += ns
		}
		if sum != q.op.E2ENs {
			return fmt.Errorf("%s/r%d/%s: stages sum %d != e2e %d", p.Mode, p.Replicas, q.name, sum, q.op.E2ENs)
		}
	}
	if p.P50.E2ENs > p.P99.E2ENs {
		return fmt.Errorf("%s/r%d: p50 > p99", p.Mode, p.Replicas)
	}
	if p.HistP50Ns <= 0 || p.HistP99Ns < p.HistP50Ns {
		return fmt.Errorf("%s/r%d: histogram estimate quantiles missing or unordered (p50=%d p99=%d)",
			p.Mode, p.Replicas, p.HistP50Ns, p.HistP99Ns)
	}
	return nil
}

// RunBreakdown measures the per-stage latency decomposition for both
// modes at every configured replica count.
func RunBreakdown(cfg BreakdownConfig) ([]BreakdownPoint, error) {
	var out []BreakdownPoint
	for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
		for _, r := range cfg.Replicas {
			pt, err := runBreakdownPoint(mode, r, cfg)
			if err != nil {
				return nil, fmt.Errorf("breakdown %v/r%d: %w", mode, r, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

func runBreakdownPoint(mode p4ce.Mode, replicas int, cfg BreakdownConfig) (BreakdownPoint, error) {
	cl, leader, err := Steady(p4ce.Options{
		Nodes:         replicas + 1,
		Mode:          mode,
		Seed:          cfg.Seed,
		EnableTracing: true,
		EnableMetrics: true, // the log2-histogram estimator calibration
	})
	if err != nil {
		return BreakdownPoint{}, err
	}
	// Collect every finished client operation; no-ops (view opens,
	// commit-sync fillers) are protocol plumbing and stay out of the
	// quantiles.
	var recs []otrace.OpRecord
	cl.Tracer().OnFinish(func(rec otrace.OpRecord) {
		if !rec.Noop {
			recs = append(recs, rec)
		}
	})
	if _, err := ClosedLoop(cl, leader, cfg.ItemSize, cfg.Depth, cfg.Warmup, cfg.Ops); err != nil {
		return BreakdownPoint{}, err
	}
	if len(recs) == 0 {
		return BreakdownPoint{}, fmt.Errorf("no traced operations")
	}
	// The last Ops completions are the measured window (completions
	// arrive in issue order; the prefix is warmup).
	if len(recs) > cfg.Ops {
		recs = recs[len(recs)-cfg.Ops:]
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].E2E() < recs[j].E2E() })
	pick := func(pct float64) BreakdownOp {
		// Nearest-rank: the smallest op with at least pct% of the sample
		// at or below it.
		idx := int(math.Ceil(pct/100*float64(len(recs)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(recs) {
			idx = len(recs) - 1
		}
		r := recs[idx]
		op := BreakdownOp{E2ENs: r.E2E()}
		for i := range op.StageNs {
			op.StageNs[i] = r.Stage(i)
		}
		return op
	}
	hist := cl.Metrics().Histogram("mu.shard0.commit_latency_ns")
	return BreakdownPoint{
		Mode:      mode,
		Replicas:  replicas,
		ItemSize:  cfg.ItemSize,
		Ops:       len(recs),
		P50:       pick(50),
		P99:       pick(99),
		HistP50Ns: hist.QuantileInterp(0.50),
		HistP99Ns: hist.QuantileInterp(0.99),
	}, nil
}
