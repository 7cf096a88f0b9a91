package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) computes them,
// so the spreads printed here are the ones the acceptance rule uses.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailPercentile is the cell-latency tail the benchmark reports. It is
// fixed rather than chosen per run, so that a run which completes more
// cells does not silently switch to a higher percentile; every workload
// is sized to finish at least tailMinSamples cells in a run, which
// leaves at least ten samples beyond it.
const (
	tailPercentile = 90
	tailMinSamples = 100
)

// tail returns the reported tail percentile of xs and the value there.
// With fewer than tailMinSamples samples it falls back to p75 when that
// leaves ten samples beyond it, and to p50 otherwise.
func tail(xs []float64) (pct int, v float64) {
	n := len(xs)
	pct = tailPercentile
	if n < tailMinSamples {
		pct = 50
		if float64(n)*0.25 >= 10 {
			pct = 75
		}
	}
	return pct, percentile(xs, pct)
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(float64(pct) / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// geomean returns the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
