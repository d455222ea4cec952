package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics, and NaN for an empty sample.
// It is for central statistics (medians, quartiles); tail percentiles go
// through tailPercentile, which refuses thin tails.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minTail is the number of samples that must lie beyond a reported tail
// percentile: with fewer, the percentile is one or two outliers, not a
// tail.
const minTail = 10

// tailPercentile returns the p-th percentile (0 < p < 100) of xs and
// true when at least minTail samples lie beyond it, that is when
// len(xs)*(100-p)/100 >= minTail. Otherwise it returns (0, false) and
// the caller reports the percentile as missing, with the sample count.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	if float64(len(xs))*(100-p)/100 < minTail {
		return 0, false
	}
	return quantile(xs, p/100), true
}
