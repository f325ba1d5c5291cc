package main

import (
	"math"
	"slices"
)

// percentile is the nearest-rank p-quantile (0 < p <= 1) of sorted,
// or 0 when there are no samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// usAt is the p-quantile, in µs, of sorted latencies in ns.
func usAt(sorted []int64, p float64) float64 {
	return float64(percentile(sorted, p)) / 1e3
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func rangeOverMedian(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	return (slices.Max(vals) - slices.Min(vals)) / m
}

// latencies returns the samples' latencies in ns, sorted.
func latencies(ss []sample) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.ns
	}
	slices.Sort(out)
	return out
}
