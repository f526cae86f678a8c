package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of measurements of one quantity, in the metric's unit.
type sample []float64

// sorted returns an ascending copy.
func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending sample, 0 when empty — the rule the repo's own percentile
// helpers use, so harness and program agree on what "p95" means.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median of an unsorted sample (mean of the middle pair when even).
func median(s sample) float64 {
	if len(s) == 0 {
		return 0
	}
	o := s.sorted()
	mid := len(o) / 2
	if len(o)%2 == 1 {
		return o[mid]
	}
	return (o[mid-1] + o[mid]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// the spread rule the acceptance driver applies to ten runs. It needs
// at least two values; fewer report the single value twice.
func quartiles(s sample) (q1, q3 float64) {
	o := s.sorted()
	n := len(o)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return o[0], o[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points, integer arithmetic as Python does it
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j // taken after clamping, so short samples extrapolate
		return (o[j-1]*float64(4-delta) + o[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailPercentiles are the percentiles a report may name, ascending.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// supportedTail is the highest percentile with at least ten samples
// beyond it: a p99 over 400 samples rests on four values and does not
// repeat, so the harness warns when a named tail outruns its sample.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1−p/100) ≥ 10, without the rounding of p/100
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(s sample) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
