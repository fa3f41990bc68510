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
// (15) one register at a time, following Algorithm 3. α' = α·2^(64-p) is
// held as a 128-bit integer (aHi, aLo): a register contributes at most
// 2^(64-p), so m of them never overflow the pair, and because every
// contribution is an exact integer the result does not depend on the order
// the registers arrive in — a dense scan and a walk over only the touched
// registers (sparse mode) yield bit-identical coefficients. The β counters
// live in the struct so that estimating allocates nothing.
type mlAccum struct {
	cfg      Config
	aHi, aLo uint64
	beta     [64]int32 // beta[j] counts terms with exponent u = t+1+j
}

func (a *mlAccum) addAlpha(x uint64) {
	var carry uint64
	a.aLo, carry = bits.Add64(a.aLo, x, 0)
	a.aHi += carry
}

// addRegister adds the contribution of one register with value r.
func (a *mlAccum) addRegister(r uint64) {
	cfg := a.cfg
	lo := cfg.T + 1
	u := int64(r >> uint(cfg.D))
	a.addAlpha(uint64(cfg.omegaNumerator(u)) << uint(64-cfg.P-cfg.phi(u)))
	if u < 1 {
		return
	}
	a.beta[cfg.phi(u)-lo]++
	k := u - int64(cfg.D)
	if k < 1 {
		k = 1
	}
	for ; k < u; k++ {
		j := cfg.phi(k)
		if r&(uint64(1)<<uint(int64(cfg.D)-u+k)) == 0 {
			a.addAlpha(uint64(1) << uint(64-cfg.P-j))
		} else {
			a.beta[j-lo]++
		}
	}
}

// addEmpty adds the contribution of n registers that were never written:
// each adds ω(0)·2^(64-p) = 2^(64-p) to α' and nothing to β.
func (a *mlAccum) addEmpty(n int) {
	hi, lo := bits.Mul64(uint64(n), uint64(1)<<uint(64-a.cfg.P))
	a.addAlpha(lo)
	a.aHi += hi
}

// coefficients returns (α, β) as accumulated so far. Beta aliases the
// accumulator.
func (a *mlAccum) coefficients() Coefficients {
	p := a.cfg.P
	alpha := math.Ldexp(float64(a.aHi), p) + math.Ldexp(float64(a.aLo), p-64)
	return Coefficients{Alpha: alpha, Beta: a.beta[:64-p-a.cfg.T], Lo: a.cfg.T + 1}
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

// biasMemo caches BiasCorrectionConstant per (t, d) as float64 bits, 0
// meaning not computed yet (the constant is strictly positive). Evaluating
// the Hurwitz zeta function costs ~100x the rest of an estimate, and a
// store holds many sketches of one configuration.
var biasMemo [MaxT + 1][MaxD + 1]atomic.Uint64

func biasConstant(t, d int) float64 {
	slot := &biasMemo[t][d]
	if b := slot.Load(); b != 0 {
		return math.Float64frombits(b)
	}
	c := BiasCorrectionConstant(t, d)
	slot.Store(math.Float64bits(c))
	return c
}

// BiasCorrectionConstant returns the constant c of the first-order ML bias
// correction (4) for parameters (t, d), with b = 2^(2^-t). The corrected
// estimate is n̂_ML / (1 + c/m). Exposed for the hardcoded fast-path
// variants and estimator tooling.
func BiasCorrectionConstant(t, d int) float64 {
	b := math.Exp2(math.Exp2(-float64(t)))
	y := math.Pow(b, -float64(d)) / (b - 1)
	z2 := zeta.Hurwitz(2, 1+y)
	z3 := zeta.Hurwitz(3, 1+y)
	return math.Log(b) * (1 + 2*y) * z3 / (z2 * z2)
}
