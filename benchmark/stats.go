package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank q-th percentile (0 < q <= 100)
// of sorted: the smallest sample with at least q % of the samples at or
// below it. No interpolation, no buckets.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps p99 of 1000 samples at rank 990 when 0.99·1000
	// lands a hair above it in floating point.
	rank := int(math.Ceil(q/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile is the highest percentile, capped at 99, that still has
// at least ten of n samples beyond it; below 20 samples there is no tail
// to speak of and it degrades to the median.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return math.Min(99, 100*(1-10/float64(n)))
}

// median returns the middle sample (mean of the two middle ones for an
// even count). It sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because that
// is what the acceptance rule for run-to-run spread is written in. It needs
// at least two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	cut := func(i int) float64 {
		ld := len(s)
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

// samples collects exact per-operation latencies in microseconds.
type samples struct{ us []float64 }

func (s *samples) add(us float64) { s.us = append(s.us, us) }

func (s *samples) merge(o *samples) { s.us = append(s.us, o.us...) }

func (s *samples) n() int { return len(s.us) }

// p50 and tail sort once per call; they are called a handful of times at
// the end of a run.
func (s *samples) p50() float64 { return percentile(sortedCopy(s.us), 50) }

func (s *samples) tail() float64 {
	return percentile(sortedCopy(s.us), tailPercentile(len(s.us)))
}
