package sim

import (
	"math"
	"sort"
)

// LatencyRecorder accumulates latency samples and computes summary
// statistics. It keeps every sample, which is fine at the scales the
// benchmark harness uses (≤ a few million samples per run).
type LatencyRecorder struct {
	samples []Time
	sorted  bool
}

// NewLatencyRecorder returns an empty recorder with room for n samples.
func NewLatencyRecorder(n int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]Time, 0, n)}
}

// Record adds one latency sample.
func (r *LatencyRecorder) Record(d Time) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Mean returns the average sample, or 0 when empty.
func (r *LatencyRecorder) Mean() Time {
	if len(r.samples) == 0 {
		return 0
	}
	var sum Time
	for _, s := range r.samples {
		sum += s
	}
	return sum / Time(len(r.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100), or 0 when empty.
func (r *LatencyRecorder) Percentile(p float64) Time {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	return r.samples[NearestRank(p, len(r.samples))]
}

// NearestRank returns the index, in an ascending sample of n > 0
// values, of the p-th percentile by the nearest-rank rule: the smallest
// value with at least p% of the sample at or below it, clamped to the
// sample.
func NearestRank(p float64, n int) int {
	return min(max(int(math.Ceil(p/100*float64(n)))-1, 0), n-1)
}

// Max returns the largest sample, or 0 when empty.
func (r *LatencyRecorder) Max() Time { return r.Percentile(100) }

// Min returns the smallest sample, or 0 when empty.
func (r *LatencyRecorder) Min() Time {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		return r.Percentile(0.0001) // forces the sort; returns first element
	}
	return r.samples[0]
}
