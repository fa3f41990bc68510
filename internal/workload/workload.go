// Package workload provides deterministic element-stream generators for
// benchmarks and experiments: uniform fresh elements, Zipf-skewed
// duplication, and bursty arrival patterns. Distinct counting is
// insensitive to duplication by construction (idempotency, Section 1 of
// the paper); these generators exist to verify that empirically and to
// drive the harness binaries with realistic streams.
package workload

import (
	"math"

	"exaloglog/internal/hashing"
)

// Stream yields a deterministic sequence of element hashes. NextHash
// returns the hash of the next stream event (which may repeat earlier
// elements, depending on the generator).
type Stream interface {
	NextHash() uint64
}

// Uniform yields a fresh, never-repeating element on every call —
// equivalently, a stream with duplication factor 1.
type Uniform struct {
	state uint64
}

// NewUniform returns a distinct-element stream seeded deterministically.
func NewUniform(seed uint64) *Uniform {
	return &Uniform{state: seed*0x9E3779B97F4A7C15 + 1}
}

// NextHash returns the next element hash.
func (u *Uniform) NextHash() uint64 { return hashing.SplitMix64(&u.state) }

// Zipf yields elements from a finite universe with Zipf(s)-distributed
// popularity: element rank r (1-based) is drawn with probability
// ∝ 1/r^s. Small ranks repeat heavily — the classic skewed workload of
// web caches and event streams.
type Zipf struct {
	state uint64
	// cdf[i] is the cumulative probability of ranks 1..i+1.
	cdf  []float64
	seed uint64
}

// NewZipf returns a Zipf stream over a universe of n elements with
// exponent s > 0.
func NewZipf(seed uint64, n int, s float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{state: seed*0x9E3779B97F4A7C15 + 3, cdf: cdf, seed: seed}
}

// NextHash returns the hash of the next (possibly repeated) element.
func (z *Zipf) NextHash() uint64 {
	u := float64(hashing.SplitMix64(&z.state)>>11) / (1 << 53)
	// Binary search the CDF for the sampled rank.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Hash the rank (with the stream seed) so distinct ranks map to
	// independent 64-bit hashes.
	return hashing.Wy64Uint64(uint64(lo), z.seed)
}

// Bursty yields elements in bursts: each burst picks one element and
// repeats it burstLen times before moving on — the pathological ordering
// for algorithms sensitive to duplicate clustering (ELL is not: the
// stream position of duplicates never matters).
type Bursty struct {
	inner    Stream
	burstLen int
	current  uint64
	left     int
}

// NewBursty wraps a stream so each element repeats burstLen times.
func NewBursty(inner Stream, burstLen int) *Bursty {
	if burstLen < 1 {
		burstLen = 1
	}
	return &Bursty{inner: inner, burstLen: burstLen}
}

// NextHash returns the next event hash.
func (b *Bursty) NextHash() uint64 {
	if b.left == 0 {
		b.current = b.inner.NextHash()
		b.left = b.burstLen
	}
	b.left--
	return b.current
}

// DistinctCounter tracks the exact distinct count of a stream prefix by
// hash (ground truth for experiments; memory grows linearly).
type DistinctCounter struct {
	seen map[uint64]struct{}
}

// NewDistinctCounter returns an empty exact counter.
func NewDistinctCounter() *DistinctCounter {
	return &DistinctCounter{seen: make(map[uint64]struct{})}
}

// Observe records an event hash and returns the running distinct count.
func (d *DistinctCounter) Observe(h uint64) int {
	d.seen[h] = struct{}{}
	return len(d.seen)
}

// Count returns the current exact distinct count.
func (d *DistinctCounter) Count() int { return len(d.seen) }
