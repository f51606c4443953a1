package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile
// for it to count: a p90 needs 100 samples, a p99 1000.
const minBeyond = 10

// tailCandidates are the percentiles (in permille) the tail rule chooses
// from, highest first.
var tailCandidates = []int{999, 990, 900, 500}

// rankOf is the 1-based nearest-rank index of the permille-th percentile
// among n samples: ceil(permille*n/1000), at least 1.
func rankOf(n, permille int) int {
	k := (permille*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// samplesBeyond is how many of n samples lie above the permille-th
// percentile.
func samplesBeyond(n, permille int) int { return n - rankOf(n, permille) }

// tailPermille returns the highest candidate percentile with at least
// minBeyond samples above it, or 0 when even the median has fewer.
func tailPermille(n int) int {
	for _, p := range tailCandidates {
		if samplesBeyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// minSamples is the smallest sample count whose permille-th percentile has
// minBeyond samples above it.
func minSamples(permille int) int {
	n := 1
	for samplesBeyond(n, permille) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank permille-th percentile of sorted.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), permille)-1]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 500) }

// ratio is a/b, or def when b is zero.
func ratio(a, b, def float64) float64 {
	if b == 0 {
		return def
	}
	return a / b
}
