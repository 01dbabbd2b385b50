package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by nearest
// rank; sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// supported reports whether n samples support the p-th percentile: at least
// ten of them must lie beyond it.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9 // 100-99.9 is not exact in binary
}

// highestSupported returns the highest of the usual tail percentiles that n
// samples support, or 50 when even the 90th has fewer than ten beyond it.
func highestSupported(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (the mean of the two middle values
// when len(v) is even), or 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method); v needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based position
		i := int(pos)
		i = min(max(i, 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance of v as a share of its median: the
// run-to-run noise a bound has to clear. It needs four values; with fewer it
// reports 0, "unknown".
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 4 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
