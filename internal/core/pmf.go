package core

import "math"

// This file implements the register probability mass function of
// Section 3.1 and derived quantities (entropy), used by the
// compressibility study (Section 6 / future work) and as a statistical
// oracle in tests.

// RegisterPMF returns the probability of observing register value r after
// n distinct insertions under the Poisson approximation (Section 3.1).
//
// One deviation from the paper's printed formulas: Algorithm 2 leaves the
// "phantom" occurrence bit of the empty register in place (see
// updateRegister), so for 1 <= u <= d the bit at position d-u is always
// set; register values violating that have probability zero. The
// indicator bits for real update values (>= 1) follow exactly the paper's
// product form.
func (c Config) RegisterPMF(r uint64, n float64) float64 {
	m := float64(c.NumRegisters())
	if r == 0 {
		return math.Exp(-n / m)
	}
	u := int64(r >> uint(c.D))
	kmax := int64(c.MaxUpdateValue())
	if u < 1 || u > kmax {
		return 0
	}
	// Phantom bit position d-u for u <= d must be set; bits below it must
	// be zero.
	if u <= int64(c.D) {
		phantom := uint64(1) << uint(int64(c.D)-u)
		if r&phantom == 0 {
			return 0
		}
		if r&(phantom-1) != 0 {
			return 0
		}
	}
	rho := func(k int64) float64 { return math.Exp2(-float64(c.phi(k))) }
	omega := func(u int64) float64 {
		return float64(c.omegaNumerator(u)) * math.Exp2(-float64(c.phi(u)))
	}
	// P(max update value = u, no larger values).
	p := -math.Expm1(-n / m * rho(u))
	p *= math.Exp(-n / m * omega(u))
	// Indicator bits for values u-1 .. max(1, u-d).
	lo := u - int64(c.D)
	if lo < 1 {
		lo = 1
	}
	for k := lo; k < u; k++ {
		set := r&(uint64(1)<<uint(int64(c.D)-u+k)) != 0
		q := -math.Expm1(-n / m * rho(k))
		if set {
			p *= q
		} else {
			p *= 1 - q
		}
	}
	return p
}

// RegisterEntropy computes the Shannon entropy (in bits) of the register
// distribution at distinct count n. It quantifies the compression
// potential the paper's Section 6 points to: entropy × m is the
// information-theoretic lower bound for the state size, compared to the
// (6+t+d)·m dense bits.
//
// Given the maximum update value u, RegisterPMF is a_u times a product of
// independent indicator-bit probabilities q_k (or 1-q_k), so the entropy
// needs no enumeration of register values:
//
//	H = H(p₀) + Σ_u [H(a_u) + a_u · Σ_k H_b(q_k)],
//
// with H(x) = -x·log₂x, H_b the binary entropy and k over the free bits
// u-1 .. max(1, u-d). The work is O(kmax·d) for any d. The result is
// divided by the total mass p₀ + Σ_u a_u (≈ 1), as an enumeration
// normalizing its probabilities would be.
func (c Config) RegisterEntropy(n float64) float64 {
	m := float64(c.NumRegisters())
	rho := func(k int64) float64 { return math.Exp2(-float64(c.phi(k))) }
	plogp := func(p float64) float64 {
		if p <= 0 {
			return 0
		}
		return -p * math.Log2(p)
	}
	p0 := math.Exp(-n / m)
	h, total := plogp(p0), p0
	kmax := int64(c.MaxUpdateValue())
	for u := int64(1); u <= kmax; u++ {
		omega := float64(c.omegaNumerator(u)) * math.Exp2(-float64(c.phi(u)))
		a := -math.Expm1(-n/m*rho(u)) * math.Exp(-n/m*omega)
		if a <= 0 {
			continue
		}
		bits := 0.0
		for k := max(1, u-int64(c.D)); k < u; k++ {
			q := -math.Expm1(-n / m * rho(k))
			bits += plogp(q) + plogp(1-q)
		}
		h += plogp(a) + a*bits
		total += a
	}
	return h / total
}
