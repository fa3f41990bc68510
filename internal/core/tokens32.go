package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Token32V is the token parameter of Token32List. The paper singles out
// v = 26 as "particularly interesting, because it is big enough to support
// any practical ELL configuration" while tokens fit exactly into 32 bits.
const Token32V = 26

// DefaultTokenV is the token parameter for a token set that is not tied to
// one sketch configuration: 32-bit tokens, compatible with every
// configuration up to p+t = 26.
const DefaultTokenV = Token32V

// Token32List collects (26+6)-bit hash tokens in a plain []uint32 — the
// storage layout Section 4.3 recommends: "as the tokens can be stored in a
// plain 32-bit integer array, off-the-shelf sorting algorithms can be used
// for deduplication". Insertions append; deduplication happens lazily by
// sort-and-compact whenever the unsorted tail grows past the sorted
// prefix, giving amortized O(log n) per insertion and 4 bytes per distinct
// token of steady-state memory — about half the footprint of the
// map-backed TokenSet at the same v.
//
// The zero value is ready to use.
type Token32List struct {
	// buf is a sorted, distinct prefix of length sorted followed by an
	// unsorted, possibly-duplicated tail.
	buf    []uint32
	sorted int
}

// NewToken32List returns an empty token list (equivalent to new(Token32List)).
func NewToken32List() *Token32List { return &Token32List{} }

// AddHash converts a 64-bit hash to a 32-bit token and records it.
func (tl *Token32List) AddHash(h uint64) {
	tl.AddToken(uint32(TokenFromHash(h, Token32V)))
}

// AddToken records an already-computed 32-bit token.
func (tl *Token32List) AddToken(w uint32) {
	tl.buf = append(tl.buf, w)
	// Compact when the tail has grown to the size of the sorted prefix
	// (plus a floor so tiny lists don't compact on every insert).
	if tail := len(tl.buf) - tl.sorted; tail >= tl.sorted+64 {
		tl.compact()
	}
}

// compact sorts the whole buffer and removes duplicates.
func (tl *Token32List) compact() {
	sort.Slice(tl.buf, func(i, j int) bool { return tl.buf[i] < tl.buf[j] })
	out := tl.buf[:0]
	for i, w := range tl.buf {
		if i == 0 || w != tl.buf[i-1] {
			out = append(out, w)
		}
	}
	tl.buf = out
	tl.sorted = len(out)
}

// Len returns the number of distinct tokens collected (compacting first).
func (tl *Token32List) Len() int {
	if tl.sorted != len(tl.buf) {
		tl.compact()
	}
	return len(tl.buf)
}

// Tokens returns the distinct tokens in ascending order.
func (tl *Token32List) Tokens() []uint32 {
	tl.Len()
	return append([]uint32(nil), tl.buf...)
}

// SizeBytes returns the steady-state memory of the deduplicated list:
// 4 bytes per distinct token, the paper's sparse-mode accounting for
// v = 26.
func (tl *Token32List) SizeBytes() int { return 4 * tl.Len() }

// Merge adds all tokens of other into tl.
func (tl *Token32List) Merge(other *Token32List) {
	other.Len()
	tl.buf = append(tl.buf, other.buf...)
	tl.compact()
}

// DenseBreakEven returns the number of distinct tokens at which the dense
// representation of cfg becomes smaller than the 32-bit token list.
func (tl *Token32List) DenseBreakEven(cfg Config) int {
	return (cfg.SizeBytes() + 3) / 4
}

// ToSketch converts the token list into a dense ELL sketch with the given
// configuration, which must satisfy p+t <= 26. The result is identical to
// inserting the original elements directly (Section 4.3).
func (tl *Token32List) ToSketch(cfg Config) (*Sketch, error) {
	if cfg.P+cfg.T > Token32V {
		return nil, fmt.Errorf("exaloglog: 32-bit tokens cannot feed a sketch with p+t=%d > %d", cfg.P+cfg.T, Token32V)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	tl.Len()
	for _, w := range tl.buf {
		s.AddHash(HashFromToken(uint64(w), Token32V))
	}
	return s, nil
}

// ToTokenSet converts to the map-backed TokenSet (same v).
func (tl *Token32List) ToTokenSet() *TokenSet {
	ts, err := NewTokenSet(Token32V)
	if err != nil {
		panic(err) // unreachable: Token32V is in range
	}
	tl.Len()
	for _, w := range tl.buf {
		ts.AddToken(uint64(w))
	}
	return ts
}

// EstimateML estimates the distinct count directly from the token list
// (Section 4.3, Algorithm 7), identical to TokenSet.EstimateML.
func (tl *Token32List) EstimateML() float64 {
	tl.Len()
	beta := make([]int32, 64-Token32V)
	aHi := uint64(1)
	aLo := uint64(0)
	for _, w := range tl.buf {
		j := int(w&63) + Token32V + 1
		if j > 64 {
			j = 64
		}
		beta[j-Token32V-1]++
		var borrow uint64
		aLo, borrow = bits.Sub64(aLo, uint64(1)<<uint(64-j), 0)
		aHi -= borrow
	}
	alpha := math.Ldexp(float64(aHi), 0) + math.Ldexp(float64(aLo), -64)
	return SolveML(Coefficients{Alpha: alpha, Beta: beta, Lo: Token32V + 1}, 1)
}
