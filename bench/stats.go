package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the i-th of the n-quantiles of xs by the "exclusive"
// method of Python's statistics.quantiles (the default): rank
// i*(len+1)/n, interpolated between neighbours and clamped to the
// sample, so the bench's medians and percentiles match what a reader
// computes from its output with that function. xs need not be sorted.
func quantile(xs []float64, i, n int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// median is the middle value (the mean of the two middles for an even
// count), equal to the second of the exclusive quartiles.
func median(xs []float64) float64 { return quantile(xs, 2, 4) }

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the p-th percentile of xs and whether it may be
// reported: a tail percentile means something only when at least
// minTail samples rank above it, so p90 needs 100 samples.
func percentile(xs []float64, p int) (float64, bool) {
	beyond := len(xs) - p*(len(xs)+1)/100
	return quantile(xs, p, 100), beyond >= minTail
}

// unitFloorMS is the shortest unit latency unitGmean distinguishes:
// near-empty units (an experiment that only formats a table) take
// microseconds, where timer noise would swing a geometric mean.
const unitFloorMS = 1.0

// unitGmean summarizes the latency of one unit of work in a run: each
// unit's median over the run's passes, floored at unitFloorMS, then the
// geometric mean over units. Units differ in size by three orders of
// magnitude and share CPUs with each other, so a percentile over them
// follows whichever few units sit at that rank; the geometric mean
// weighs every unit alike and averages their scheduling jitter.
func unitGmean(units map[string][]float64) float64 {
	var logSum float64
	for _, lat := range units {
		logSum += math.Log(math.Max(median(lat), unitFloorMS))
	}
	return math.Exp(logSum / float64(len(units)))
}

// unitPercentiles renders the pooled unit latency median and p90 for
// the run's text output, refusing p90 when the tail is too thin.
func unitPercentiles(units map[string][]float64) string {
	var all []float64
	for _, lat := range units {
		all = append(all, lat...)
	}
	out := fmt.Sprintf("unit_ms n=%d p50=%.4g", len(all), median(all))
	if p90, ok := percentile(all, 90); ok {
		return out + fmt.Sprintf(" p90=%.4g", p90)
	}
	return out + " p90=refused"
}
