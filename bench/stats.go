package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the number is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the p-th percentile (50 <= p < 100) of xs by nearest
// rank, and whether at least minBeyond samples lie above it. xs must be
// sorted ascending.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	return xs[idx], n-1-idx >= minBeyond
}

// sorted returns xs converted by scale and sorted ascending.
func sorted(xs []int64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) * scale
	}
	sort.Float64s(out)
	return out
}

// median is the 50th percentile of unsorted xs, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 50)
	return v
}
