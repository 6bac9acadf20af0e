package main

import "testing"

func TestTailEstimators(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("quantile p99 = %v, want 990", got)
	}
	// Windows 1..333, 334..666 and 667..999 have nearest-rank p99s of 330,
	// 663 and 996; the median is the middle window's.
	if got := windowedP99(xs[:999], 3); got != 663 {
		t.Errorf("windowedP99 = %v, want 663", got)
	}
}
