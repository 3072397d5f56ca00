package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// vals by linear interpolation between closest ranks; vals is left as
// it was. Used for the spread printed beside every host-time figure.
func quartiles(vals []float64) (q1, med, q3 float64) {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, 0.25), quantileSorted(sorted, 0.5), quantileSorted(sorted, 0.75)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// nearestRank returns the smallest element of sorted with at least pct
// percent of the sample at or below it — the percentile rule the
// repository's own latency tables use, so figures compare directly.
func nearestRank(sorted []int64, pct float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(pct/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
