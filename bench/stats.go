package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): below that the percentile is one or two outliers,
// not a property of the system.
const minBeyond = 10

// median returns the middle of the samples (mean of the two middle ones for
// an even count), 0 for none. It sorts a copy.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0.5 < q < 1) of the
// samples and refuses when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the run-to-run spread the driver computes, with the
// same "exclusive" method as Python's statistics.quantiles(values, n=4).
func quartileSpread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile cut point
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > n-2 {
			lo = n - 2
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
