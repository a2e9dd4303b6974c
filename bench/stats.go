package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the middle two for an
// even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the method
// of Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads printed here match a hand check in Python. With
// fewer than two values both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}

// tailPercentiles are the tail percentiles a run may report, highest
// first, each with the share of samples beyond it in parts per thousand.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{99.9, 1}, {99, 10}, {90, 100}}

// tailPercentile returns the highest tail percentile that leaves at
// least ten of n samples beyond it, or 0 when n is below 100. Integer
// arithmetic keeps the boundary exact (1000 samples qualify for p99).
func tailPercentile(n int) float64 {
	for _, t := range tailPercentiles {
		if n*t.beyond >= 10*1000 {
			return t.p
		}
	}
	return 0
}
