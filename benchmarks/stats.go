package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// percentileLadder is the set of percentiles a timing may be reported at, in
// tenths of a percent so that "ten samples beyond" is integer arithmetic.
var percentileLadder = []int{500, 900, 990, 999}

// pickPercentile returns the highest percentile of the ladder that still has
// at least ten of n samples beyond it, or 0 when even the median has not.
func pickPercentile(n int) float64 {
	best := 0
	for _, p := range percentileLadder {
		if n*(1000-p)/1000 >= 10 {
			best = p
		}
	}
	return float64(best) / 10
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which is
// what the benchmark's acceptance rule is stated in. Fewer than two values
// have no quartiles; both read the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// latencySummary is the median and one tail percentile (nearest rank) of a
// set of latencies in ms, with the sample count a reader needs to judge the
// tail by: pickPercentile(n) says how high a percentile n samples support.
type latencySummary struct {
	n         int
	p50, tail float64
	tailP     float64
}

func summarize(latenciesMS []float64, tailP float64) latencySummary {
	if len(latenciesMS) == 0 {
		return latencySummary{tailP: tailP}
	}
	s := sortedCopy(latenciesMS)
	return latencySummary{n: len(s), p50: percentile(s, 50), tail: percentile(s, tailP), tailP: tailP}
}

func (l latencySummary) String() string {
	return fmt.Sprintf("n=%d p50 %.3f ms p%g %.3f ms (%d samples support p%g)", l.n, l.p50, l.tailP, l.tail, l.n, pickPercentile(l.n))
}

// ratio is num/den, and 0 where there was nothing to divide by: a share of
// no events reads as a layer that was idle.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
