package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Hash tokens implement the sparse mode of Section 4.3: instead of
// allocating the full register array up front, a sketch can collect
// compact (v+6)-bit tokens derived from the 64-bit hash values and convert
// them to a dense sketch only at the break-even point. A token keeps the
// least significant v bits of the hash plus the number of leading zeros of
// the remaining 64-v bits (6 bits), which is sufficient for insertion into
// any ELL sketch with p+t <= v.
//
// There is one token container per job. Hybrid (hybrid.go) is the one to
// store, merge and ship: v fixed at p+t, a succinct canonical encoding that
// is also its serialized form (the only token blob this package decodes),
// automatic conversion at break-even. TokenSet, below, is Algorithm 7 as
// the paper states it, at any v, in a map: the reference the simulations
// and the ML solver's iteration count are taken from. It has no serialized
// form.

// TokenMinV and TokenMaxV bound the token parameter v. v >= 1 makes the
// NLZ fit into 6 bits; v <= 26 keeps tokens within 32 bits, which the
// paper singles out as the practical sweet spot.
const (
	TokenMinV = 1
	TokenMaxV = 58
)

// DefaultTokenV is the token parameter for a token set that is not tied to
// one sketch configuration: 32-bit tokens, compatible with every
// configuration up to p+t = 26.
const DefaultTokenV = 26

// TokenFromHash compresses a 64-bit hash value into a (v+6)-bit hash token:
// the low v bits of the hash shifted left by 6, plus the NLZ of the
// remaining 64-v bits.
func TokenFromHash(h uint64, v int) uint64 {
	low := h & (uint64(1)<<uint(v) - 1)
	n := bits.LeadingZeros64(h | (uint64(1)<<uint(v) - 1))
	return low<<6 + uint64(n)
}

// HashFromToken reconstructs a representative 64-bit hash value from a
// token (Section 4.3). The reconstruction is not the original hash, but it
// is equivalent for insertion into any ELL sketch with p+t <= v: it has
// the same low v bits and the same NLZ of the upper 64-v bits.
func HashFromToken(w uint64, v int) uint64 {
	s := w & 63
	// 2^(64-s) - 2^v + (w >> 6); uint64 wrap-around handles s = 0.
	return uint64(1)<<(64-s) - uint64(1)<<uint(v) + w>>6
}

// TokenSet collects distinct hash tokens for a given v. The zero value is
// not usable; create instances with NewTokenSet.
type TokenSet struct {
	v      int
	tokens map[uint64]struct{}
}

// NewTokenSet creates an empty token set with parameter v.
func NewTokenSet(v int) (*TokenSet, error) {
	if v < TokenMinV || v > TokenMaxV {
		return nil, fmt.Errorf("exaloglog: token parameter v=%d out of range [%d, %d]", v, TokenMinV, TokenMaxV)
	}
	return &TokenSet{v: v, tokens: make(map[uint64]struct{})}, nil
}

// Len returns the number of distinct tokens collected.
func (ts *TokenSet) Len() int { return len(ts.tokens) }

// AddHash converts a 64-bit hash to a token and records it.
func (ts *TokenSet) AddHash(h uint64) {
	ts.tokens[TokenFromHash(h, ts.v)] = struct{}{}
}

// Tokens returns the collected tokens in ascending order.
func (ts *TokenSet) Tokens() []uint64 {
	out := make([]uint64, 0, len(ts.tokens))
	for w := range ts.tokens {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SizeBytes returns the serialized size of the token collection:
// ceil(len·(v+6)/8) bytes, the sparse-mode space accounting.
func (ts *TokenSet) SizeBytes() int {
	return int((uint64(len(ts.tokens))*uint64(ts.v+6) + 7) / 8)
}

// ToSketch converts the token set into a dense ELL sketch with the given
// configuration, which must satisfy p+t <= v. The result is identical to
// inserting the original elements directly (Section 4.3).
func (ts *TokenSet) ToSketch(cfg Config) (*Sketch, error) {
	if cfg.P+cfg.T > ts.v {
		return nil, fmt.Errorf("exaloglog: tokens with v=%d cannot feed a sketch with p+t=%d", ts.v, cfg.P+cfg.T)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for w := range ts.tokens {
		s.AddHash(HashFromToken(w, ts.v))
	}
	return s, nil
}

// Merge adds all tokens of other (with equal v) into ts.
func (ts *TokenSet) Merge(other *TokenSet) error {
	if ts.v != other.v {
		return fmt.Errorf("exaloglog: cannot merge token sets with v=%d and v=%d", ts.v, other.v)
	}
	for w := range other.tokens {
		ts.tokens[w] = struct{}{}
	}
	return nil
}

// EstimateML estimates the distinct count directly from the token set by
// maximum likelihood (Section 4.3, Algorithm 7). The token log-likelihood
// has the same shape (26) as the register likelihood with m = 1 and
// exponents v+1 .. 64, so the same Newton solver applies.
func (ts *TokenSet) EstimateML() float64 {
	c := ts.MLCoefficients()
	return SolveML(c, 1)
}

// MLCoefficients computes (α, β) from the collected tokens following
// Algorithm 7. α' starts at 2^64 (held as a 128-bit hi/lo pair rather than
// relying on unsigned wrap-around) and each token subtracts 2^(64-j).
func (ts *TokenSet) MLCoefficients() Coefficients {
	beta := make([]int32, 64-ts.v)
	aHi := uint64(1)
	aLo := uint64(0)
	for w := range ts.tokens {
		j := int(w&63) + ts.v + 1
		if j > 64 {
			j = 64
		}
		beta[j-ts.v-1]++
		dec := uint64(1) << uint(64-j)
		var borrow uint64
		aLo, borrow = bits.Sub64(aLo, dec, 0)
		aHi -= borrow
	}
	alpha := math.Ldexp(float64(aHi), 0) + math.Ldexp(float64(aLo), -64)
	return Coefficients{Alpha: alpha, Beta: beta, Lo: ts.v + 1}
}
