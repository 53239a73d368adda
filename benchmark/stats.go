package main

import (
	"math"
	"slices"
)

// median of xs (mean of the middle two for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the nearest-rank index of quantile q in n sorted samples.
func rankOf(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// beyond is how many of n samples rank above quantile q. A percentile
// is reported from a window only when at least minBeyond lie beyond
// it; for p99 that takes 1000 samples.
func beyond(n int, q float64) int { return n - 1 - rankOf(n, q) }

const minBeyond = 10

func percentile(sorted []int64, q float64) int64 { return sorted[rankOf(len(sorted), q)] }

// latencySummary reduces per-slice latency samples (ns) to p50 and
// p99 in µs. When every slice supports a p99 on its own, each figure
// is the median over slices, which a single stall cannot move; when
// the slices are too thin the samples are pooled. supported tells
// whether the reported p99 had minBeyond samples beyond it.
func latencySummary(sl [][]int64) (p50us, p99us float64, n int, supported bool) {
	perSlice := len(sl) > 0
	for _, s := range sl {
		n += len(s)
		if len(s) == 0 || beyond(len(s), 0.99) < minBeyond {
			perSlice = false
		}
	}
	if n == 0 {
		return 0, 0, 0, false
	}
	if !perSlice {
		pool := make([]int64, 0, n)
		for _, s := range sl {
			pool = append(pool, s...)
		}
		slices.Sort(pool)
		return float64(percentile(pool, 0.5)) / 1e3, float64(percentile(pool, 0.99)) / 1e3,
			n, beyond(n, 0.99) >= minBeyond
	}
	var p50s, p99s []float64
	for _, s := range sl {
		slices.Sort(s)
		p50s = append(p50s, float64(percentile(s, 0.5))/1e3)
		p99s = append(p99s, float64(percentile(s, 0.99))/1e3)
	}
	return median(p50s), median(p99s), n, true
}

// selfTimes turns cumulative per-layer costs, bottom layer first,
// into self times: each layer minus the nearest layer below that ran.
// A layer that did not run (cum 0) has self time 0 and is skipped as
// a base. A negative self time is kept: it says the layer's batching
// saved more than the layer cost.
func selfTimes(cum []float64) []float64 {
	self := make([]float64, len(cum))
	below := 0.0
	for i, c := range cum {
		if c == 0 {
			continue
		}
		self[i] = c - below
		below = c
	}
	return self
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles of
// Python's statistics.quantiles(xs, n=4) (exclusive method), the
// repeatability figure bounds are judged against. Fewer than two
// values have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1) // clamped first, then extrapolated from, as Python does
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
