package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles the tail rule picks from, in basis
// points, highest first.
var tailLadder = []int{9999, 9990, 9900, 9000, 5000}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it (nearest-rank definition), or 0 when
// not even the median does.
func tailPercentile(n int) float64 {
	for _, bp := range tailLadder {
		rank := (bp*n + 9999) / 10000 // ceil(p·n), the p-th sample's rank
		if n-rank >= 10 {
			return float64(bp) / 100
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0 for
// no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// dist is a latency sample set summarized by the benchmark's rule: the
// median, the fixed p90 the metrics name, and the highest percentile with
// ten samples beyond it, with the sample count.
type dist struct {
	N        int
	P50, P90 float64
	TailP    float64
	Tail     float64
}

func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: percentile(s, 50), P90: percentile(s, 90), TailP: tailPercentile(len(s))}
	if d.TailP > 0 {
		d.Tail = percentile(s, d.TailP)
	}
	return d
}

func median(samples []float64) float64 { return summarize(samples).P50 }

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
