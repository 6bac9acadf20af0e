package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile: the smallest value with at
// least a share q of the values at or below it; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// windowedP99 splits time-ordered samples into windows consecutive runs
// of equal length and returns the median of the windows' p99s. One host
// stall then moves one window, not the reported tail.
func windowedP99(xs []float64, windows int) float64 {
	windows = max(1, min(windows, len(xs)))
	var p99s []float64
	for w := 0; w < windows; w++ {
		p99s = append(p99s, quantile(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], 0.99))
	}
	return median(p99s)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func secs(d time.Duration) float64 { return d.Seconds() }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
