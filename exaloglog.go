// Package exaloglog implements ExaLogLog (ELL), a space-efficient,
// practical data structure for approximate distinct counting up to the
// exa-scale, as described in
//
//	Otmar Ertl. "ExaLogLog: Space-Efficient and Practical Approximate
//	Distinct Counting up to the Exa-Scale." EDBT 2025.
//
// Like HyperLogLog, ExaLogLog is commutative, idempotent, mergeable and
// reducible, has a constant-time insert operation, and supports distinct
// counts up to ~1.8·10^19. Unlike HyperLogLog it needs up to 43 % less
// space for the same estimation error (memory-variance product 3.67 vs
// 6.45 for 6-bit HLL).
//
// # Quick start
//
//	sketch := exaloglog.New(12) // 2^12 registers, ~0.6 % standard error
//	sketch.AddString("alice")
//	sketch.AddString("bob")
//	sketch.AddString("alice") // duplicates never change the state
//	fmt.Println(sketch.Estimate()) // ≈ 2
//
// # Choosing a configuration
//
// New uses the paper's most space-efficient configuration ELL(t=2, d=20).
// NewWithConfig gives access to the other recommended parameterizations:
//
//   - Config{T:2, D:20, P:p} — best space efficiency (MVP 3.67)
//   - Config{T:2, D:24, P:p} — 32-bit registers, fastest access (MVP 3.78)
//   - Config{T:1, D: 9, P:p} — 16-bit registers (MVP 3.90)
//   - Config{T:2, D:16, P:p} — best with martingale estimation (MVP 2.77)
//
// The special cases ELL(0,0), ELL(0,1) and ELL(0,2) are exactly
// HyperLogLog, ExtendedHyperLogLog and UltraLogLog.
//
// # Distributed use
//
// Sketches with identical parameters merge losslessly ([Sketch.Merge]); the
// result is the same as if one sketch had seen the union of both streams.
// Sketches whose parameters differ (but share t) can still be combined
// after reduction ([MergeCompatible], [Sketch.ReduceTo]).
//
// # Single-stream use
//
// When data is not distributed, enable martingale (HIP) estimation with
// [Sketch.EnableMartingale] before inserting; it lowers the estimation
// error at equal memory by roughly 20 % (and by 33 % when also switching
// to the D=16 configuration).
//
// # Sparse mode
//
// For sketches that usually stay almost empty, use [NewHybrid]: it keeps the
// distinct hash tokens at v = P+T in a succinct sorted encoding (Elias–Fano
// prefixes and unary zero counts: 14.5 bits a token at 16 tokens and 4.7 at
// 10 000, where the paper's plain token takes P+T+6), converts itself to a
// dense sketch at the break-even point, and estimates, merges and serializes
// the same in both modes. Reach for it whenever a sketch is stored, merged
// or shipped. [NewTokenSet] is the paper's Section 4.3 as written — tokens
// at any v in a map, Algorithm 7's estimate straight from them,
// [TokenSet.ToSketch] to convert by hand — for experiments that vary v; it
// has no serialized form.
package exaloglog

import (
	"exaloglog/internal/core"
)

// Sketch is an ExaLogLog sketch. See the package documentation for usage.
//
// The zero value is not usable; create sketches with New, NewWithConfig or
// FromBinary. Sketches are not safe for concurrent mutation.
type Sketch = core.Sketch

// Config holds the ExaLogLog parameters (T, D, P). See the package
// documentation for recommended values.
type Config = core.Config

// TokenSet collects sparse-mode hash tokens (Section 4.3 of the paper).
type TokenSet = core.TokenSet

// Coefficients are the sufficient statistics (α, β) of the ExaLogLog
// log-likelihood function; exposed for estimator research and tooling.
type Coefficients = core.Coefficients

// Interval is a confidence interval around a distinct-count estimate,
// returned by [Sketch.EstimateWithBounds].
type Interval = core.Interval

// Parameter bounds.
const (
	MinPrecision = core.MinP
	MaxPrecision = core.MaxP
)

// New returns a sketch with the paper's most space-efficient configuration
// ELL(t=2, d=20) and 2^p registers. The relative standard error of the
// estimate is about 1.25 %·2^((8-p)/2): p=8 → 2.3 %, p=12 → 0.57 %.
// The sketch occupies exactly 2^p·28/8 bytes.
func New(p int) *Sketch {
	return core.MustNew(core.RecommendedML(p))
}

// NewWithConfig returns a sketch with an explicit parameterization.
func NewWithConfig(cfg Config) (*Sketch, error) {
	return core.New(cfg)
}

// NewMartingale returns a sketch with the martingale-optimal configuration
// ELL(t=2, d=16) and martingale estimation already enabled. Use this for
// single-stream (non-distributed) counting; do not merge into it.
func NewMartingale(p int) *Sketch {
	s := core.MustNew(core.RecommendedMartingale(p))
	if err := s.EnableMartingale(); err != nil {
		panic(err) // unreachable: the sketch is empty
	}
	return s
}

// FromBinary reconstructs a sketch serialized with Sketch.MarshalBinary.
func FromBinary(data []byte) (*Sketch, error) {
	return core.FromBinary(data)
}

// AtomicSketch is a lock-free sketch for concurrent insertion, using the
// 32-bit-aligned ELL(2,24) registers the paper recommends for
// compare-and-swap updates (Section 2.4).
type AtomicSketch = core.AtomicSketch

// NewAtomic returns a lock-free concurrent sketch with ELL(2,24)
// configuration and 2^p registers. Multiple goroutines may call AddHash /
// Add / AddString simultaneously without locking; Snapshot materializes a
// regular Sketch for estimation, merging and serialization.
func NewAtomic(p int) *AtomicSketch {
	s, err := core.NewAtomic(core.RecommendedFast(p))
	if err != nil {
		panic(err) // unreachable: RecommendedFast always has 32-bit registers
	}
	return s
}

// MergeCompatible merges two sketches that share the T parameter but may
// differ in D and P, reducing both to common parameters first. Neither
// input is modified.
func MergeCompatible(a, b *Sketch) (*Sketch, error) {
	return core.MergeCompatible(a, b)
}

// NewTokenSet creates a sparse-mode token collection with parameter v
// (token size v+6 bits). Tokens can feed any sketch with P+T <= v; v=26
// (32-bit tokens) accommodates every practical configuration.
func NewTokenSet(v int) (*TokenSet, error) {
	return core.NewTokenSet(v)
}

// Hybrid is a sketch that starts in sparse (hash-token) mode and converts
// itself to a dense sketch at the break-even point — ideal when many
// sketches are kept and most stay small. Its estimate is the dense ML
// estimate in both modes, and its serialization is canonical.
type Hybrid = core.Hybrid

// NewHybrid returns a hybrid sparse→dense sketch that densifies into the
// given configuration.
func NewHybrid(cfg Config) (*Hybrid, error) {
	return core.NewHybrid(cfg)
}

// TokenFromHash compresses a 64-bit hash into a (v+6)-bit token.
func TokenFromHash(h uint64, v int) uint64 { return core.TokenFromHash(h, v) }

// HashFromToken reconstructs a representative 64-bit hash from a token.
func HashFromToken(w uint64, v int) uint64 { return core.HashFromToken(w, v) }
