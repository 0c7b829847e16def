package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank. It
// fails when fewer than minBeyond samples lie beyond the returned one, so
// a tail percentile is never read off a handful of outliers.
func percentile(xs []float64, p float64) (float64, error) {
	return percentileBeyond(xs, p, minBeyond)
}

func percentileBeyond(xs []float64, p float64, need int) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile %.2f of no samples", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	beyond := len(s) - 1 - i
	if p > 0.5 && beyond < need {
		return 0, fmt.Errorf("percentile %.2f of %d samples has %d beyond it, need %d", p, len(s), beyond, need)
	}
	return s[i], nil
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs with the exclusive
// method of Python's statistics.quantiles(xs, n=4), which is what the
// driver of BENCHMARK.json uses to judge spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if len(s) < 2 {
		return s[0], s[0]
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
