package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"exaloglog/internal/zeta"
)

// Coefficients holds the sufficient statistics (α, β) of the log-likelihood
// function (15),
//
//	ln L = -(n/m)·α + Σ_u β_u · ln(1 - e^(-n/(m·2^u))),
//
// extracted from register or token states. Beta[j] stores β_{Lo+j}.
type Coefficients struct {
	// Alpha is α ≥ 0; the per-register contributions are exact integer
	// multiples of 2^-(64-p) and are accumulated in 128-bit fixed point,
	// so Alpha carries no summation error beyond one final rounding.
	Alpha float64
	// Beta[j] counts likelihood terms with exponent u = Lo + j.
	Beta []int32
	// Lo is the smallest possible exponent, t+1 for registers (v+1 for
	// hash tokens).
	Lo int
}

// mlAccum accumulates the coefficients of the log-likelihood function
// (15) one register at a time, following Algorithm 3, but by φ-group
// rather than bit by bit. φ(k) (11) is constant over each aligned run of
// 2^t update values, so a register's indicator bits fall into a few runs
// that each add their popcount to one β_j and their zeros·2^(64-p-j) to
// α' = α·2^(64-p); a register's own update value u adds a term that
// depends on u alone, so registers are only counted per u here and those
// terms are folded in once, by coefficients.
//
// Every sum is an exact integer — α' in 128 bits: a register contributes
// at most 2^(64-p), so m of them never overflow — and the result does not
// depend on the order the registers arrive in: a dense scan and a walk
// over only the touched registers (sparse mode) yield bit-identical
// coefficients, and both equal the bit-by-bit loop of Algorithm 3. The
// counters live in the struct so that estimating allocates nothing.
type mlAccum struct {
	cfg Config
	// hist[u] counts the registers whose update value is u; a register
	// of 6+t bits for u holds u < 64·2^t.
	hist [64 << MaxT]uint32
	// ones[64+g] counts the set indicator bits of φ-group g, the update
	// values k with ⌊(k-1)/2^t⌋ = g, so that φ(k) = t+1+g below the cap
	// 64-p; k ≤ u-1 < 64·2^t keeps g < 64. The bits of k ≤ 0 count for
	// nothing: they fall in groups g < 0, slots 64+g > 0 that
	// coefficients never reads.
	ones [128]uint64
	beta [64]int32 // beta[j] counts terms with exponent u = t+1+j
}

// addRegister adds the contribution of one register with value r: u to
// the histogram, and one popcount per φ-group of its set indicator bits.
// Indicator bit b of r records update value k = u-d+b. φ-groups begin at
// the bits b with k-1 ≡ 0 mod 2^t; s is the first of them with k ≥ 1,
// d+1-u when u ≤ d, and past it the groups are aligned runs of 2^t bits
// of x >> s, counted until no set bit is left: a register of a small u,
// as most are in sparse mode, adds a group or two.
func (a *mlAccum) addRegister(r uint64) {
	t, d := uint(a.cfg.T)&7, uint(a.cfg.D)&63
	u := uint(r>>d) & (64<<MaxT - 1)
	a.hist[u]++
	if u == 0 {
		return // never written: every indicator bit has k ≤ 0
	}
	x := r & (1<<d - 1)
	e := int(d+1) - int(u)
	s := uint(max(e, e&(1<<t-1)))
	g := int(u+s-d-1)>>t + 64 // slot of the group that begins at bit s
	a.ones[(g-1)&127] += uint64(bits.OnesCount64(x & (1<<s - 1)))
	w := uint(1) << t
	for x >>= s; x != 0; x >>= w {
		a.ones[g&127] += uint64(bits.OnesCount64(x & (1<<w - 1)))
		g++
	}
}

// addEmpty adds the contribution of n registers that were never written:
// each adds ω(0)·2^(64-p) = 2^(64-p) to α' and nothing to β.
func (a *mlAccum) addEmpty(n int) { a.hist[0] += uint32(n) }

// coefficients returns (α, β) as accumulated so far. Beta aliases the
// accumulator. Per u counted, ω(u)·2^(64-p) enters α' once a register,
// β_φ(u) counts the registers with u ≥ 1, and the indicator bits of u's
// φ-groups enter as zeros: each of a group's clear bits adds 2^(64-p-j)
// to α', each set bit one to β_j.
func (a *mlAccum) coefficients() Coefficients {
	c := a.cfg
	t, d := uint(c.T), c.D
	lo := c.T + 1
	var aHi, aLo uint64
	add := func(n, x uint64) {
		hi, l := bits.Mul64(n, x)
		var carry uint64
		aLo, carry = bits.Add64(aLo, l, 0)
		aHi += hi + carry
	}
	var bitsOf [64]uint64 // bitsOf[g]: the indicator bits of φ-group g
	a.beta = [64]int32{}
	for u, n := range a.hist[:64<<t] {
		if n == 0 {
			continue
		}
		j := c.phi(int64(u))
		add(uint64(n), uint64(c.omegaNumerator(int64(u)))<<uint(64-c.P-j))
		if u >= 1 {
			a.beta[j-lo] += int32(n)
		}
		for k := max(u-d, 1); k < u; k++ {
			bitsOf[(k-1)>>t] += uint64(n)
		}
	}
	for g, n := range bitsOf {
		ones := a.ones[g+64]
		if n == 0 {
			continue
		}
		j := c.phi(int64(g)<<t + 1)
		add(n-ones, uint64(1)<<uint(64-c.P-j))
		a.beta[j-lo] += int32(ones)
	}
	p := c.P
	alpha := math.Ldexp(float64(aHi), p) + math.Ldexp(float64(aLo), p-64)
	return Coefficients{Alpha: alpha, Beta: a.beta[:64-p-c.T], Lo: lo}
}

// solve returns the raw ML estimate for the accumulated coefficients.
func (a *mlAccum) solve() float64 {
	return SolveML(a.coefficients(), float64(a.cfg.NumRegisters()))
}

// estimate returns the ML estimate with the first-order bias correction of
// equation (4) applied.
func (a *mlAccum) estimate() float64 {
	m := float64(a.cfg.NumRegisters())
	return a.solve() / (1 + biasConstant(a.cfg.T, a.cfg.D)/m)
}

// accumulate feeds every register of s to a.
func (s *Sketch) accumulate(a *mlAccum) {
	a.cfg = s.cfg
	m := s.cfg.NumRegisters()
	for i := 0; i < m; i++ {
		a.addRegister(s.regs.Get(i))
	}
}

// SolveML finds the maximum-likelihood distinct-count estimate for a
// likelihood of shape (15) with coefficients c and register count m,
// using the Newton iteration of Algorithm 8 (Appendix A). It returns 0 if
// all β are zero (pristine state) and +Inf if α = 0 (fully saturated
// state, which the paper notes occurs only at entirely unrealistic
// distinct counts).
func SolveML(c Coefficients, m float64) float64 {
	est, _ := SolveMLCounted(c, m)
	return est
}

// SolveMLCounted is SolveML plus the number of Newton iterations
// performed. Appendix A reports that the iteration count never exceeded
// 10 in any of the paper's experiments; tests assert the same here.
func SolveMLCounted(c Coefficients, m float64) (float64, int) {
	sigma0 := 0.0
	sigma1 := 0.0
	uMin, uMax := -1, 0
	for j, b := range c.Beta {
		if b > 0 {
			u := c.Lo + j
			if uMin < 0 {
				uMin = u
			}
			uMax = u
			sigma0 += float64(b)
			sigma1 += math.Ldexp(float64(b), -u) // β_j · 2^-j, see (27)
		}
	}
	if uMin < 0 {
		return 0, 0 // all β_j zero: the ML estimate of a pristine state
	}
	if c.Alpha <= 0 {
		return math.Inf(1), 0 // all registers saturated
	}
	sigma1 = math.Ldexp(sigma1, uMax)
	a2u := c.Alpha * math.Ldexp(1, uMax)
	x := sigma1 / a2u
	iterations := 0
	if uMin < uMax {
		// Lower bracket (27); guaranteed f(x0) <= 0 by Lemma B.3.
		x = math.Expm1(math.Log1p(x) * (sigma0 / sigma1))
		for {
			iterations++
			// Sum φ(x) (17) and ψ(x) (28) with the recursions
			// (20)-(22) and (30); all quantities stay in safe ranges.
			lambda := 1.0
			eta := 0.0
			y := x
			u := uMax
			phi := float64(c.Beta[u-c.Lo])
			psi := 0.0
			for {
				u--
				z := 2 / (2 + y)
				lambda *= z
				eta = eta*(2-z) + (1 - z)
				if b := c.Beta[u-c.Lo]; b > 0 {
					phi += float64(b) * lambda
					psi += float64(b) * lambda * eta
				}
				if u <= uMin {
					break
				}
				y *= y + 2
			}
			xp := a2u * x
			if phi <= xp {
				break // f(x) >= 0: converged (or numeric error floor)
			}
			xOld := x
			x *= 1 + (phi-xp)/(psi+xp)
			if x <= xOld {
				break // numerically converged
			}
		}
	}
	return m * math.Ldexp(1, uMax) * math.Log1p(x), iterations
}

// EstimateML returns the maximum-likelihood distinct-count estimate with
// the first-order bias correction of equation (4) applied.
func (s *Sketch) EstimateML() float64 {
	var acc mlAccum
	s.accumulate(&acc)
	return acc.estimate()
}

// EstimateMLUncorrected returns the raw ML estimate without bias
// correction (used by tests and the ablation benchmarks).
func (s *Sketch) EstimateMLUncorrected() float64 {
	var acc mlAccum
	s.accumulate(&acc)
	return acc.solve()
}

// Estimate returns the sketch's best distinct-count estimate: the
// martingale estimate when martingale tracking is enabled (smaller error,
// Section 3.3), and the bias-corrected ML estimate otherwise.
func (s *Sketch) Estimate() float64 {
	if s.martingale {
		return s.martingaleN
	}
	return s.EstimateML()
}

// biasMemo caches biasConstant per (t, d) as float64 bits, 0 meaning not
// computed yet (the constant is strictly positive). Evaluating the Hurwitz
// zeta function costs ~100x the rest of an estimate, and a store holds
// many sketches of one configuration.
var biasMemo [MaxT + 1][MaxD + 1]atomic.Uint64

// biasConstant returns the constant c of the first-order ML bias
// correction (4) for parameters (t, d), with b = 2^(2^-t). The corrected
// estimate is n̂_ML / (1 + c/m).
func biasConstant(t, d int) float64 {
	slot := &biasMemo[t][d]
	if c := slot.Load(); c != 0 {
		return math.Float64frombits(c)
	}
	b := math.Exp2(math.Exp2(-float64(t)))
	y := math.Pow(b, -float64(d)) / (b - 1)
	z2 := zeta.Hurwitz(2, 1+y)
	z3 := zeta.Hurwitz(3, 1+y)
	c := math.Log(b) * (1 + 2*y) * z3 / (z2 * z2)
	slot.Store(math.Float64bits(c))
	return c
}
