// Package similarity estimates set relationships — union, intersection,
// Jaccard similarity, containment — from ExaLogLog sketches.
//
// The union count is exact in sketch terms: merging two ELL sketches
// yields the very sketch the union stream would have produced (Section 4.1
// of the paper), so the union estimate carries the ordinary single-sketch
// error. Intersection-derived quantities use inclusion–exclusion,
// |A∩B| = |A| + |B| − |A∪B|, whose absolute error is the combined error
// of three estimates: the *relative* error of the intersection therefore
// grows as the true intersection shrinks relative to the union. The
// rule of thumb: with per-sketch relative standard error σ, the Jaccard
// estimate j carries an absolute error of roughly σ·√3·(1+j); trusting
// fine distinctions below j ≈ 3σ is not meaningful. Estimates.JaccardError
// quantifies this per call.
package similarity

import (
	"fmt"
	"math"

	"exaloglog/internal/core"
)

// Estimates summarizes the relationship of two sketched sets A and B.
type Estimates struct {
	// CountA and CountB are the individual distinct-count estimates.
	CountA, CountB float64
	// Union estimates |A ∪ B| (lossless sketch merge).
	Union float64
	// Intersection estimates |A ∩ B| by inclusion–exclusion, clamped to
	// [0, min(CountA, CountB)].
	Intersection float64
	// Jaccard estimates |A∩B| / |A∪B| in [0, 1].
	Jaccard float64
	// ContainmentAinB estimates |A∩B| / |A|: how much of A lies in B.
	ContainmentAinB float64
	// ContainmentBinA estimates |A∩B| / |B|.
	ContainmentBinA float64
	// Sigma is the per-sketch relative standard error used for the
	// error guidance below (the larger of the two inputs' errors).
	Sigma float64
}

// JaccardError returns the approximate absolute standard error of the
// Jaccard estimate: σ·√3·(1 + j). Differences in Jaccard below ~2x this
// value are noise.
func (e Estimates) JaccardError() float64 {
	return e.Sigma * math.Sqrt(3) * (1 + e.Jaccard)
}

// Analyze estimates all set relationships between the streams recorded by
// a and b. The inputs are not modified; they must share the t-parameter
// (differing d and p are aligned by reduction, Section 4.1).
func Analyze(a, b *core.Sketch) (Estimates, error) {
	if a == nil || b == nil {
		return Estimates{}, fmt.Errorf("similarity: nil sketch")
	}
	union, err := core.MergeCompatible(a, b)
	if err != nil {
		return Estimates{}, err
	}
	e := Estimates{
		CountA: a.Estimate(),
		CountB: b.Estimate(),
		Union:  union.Estimate(),
	}
	sa, sb := a.RelativeStandardError(), b.RelativeStandardError()
	e.Sigma = math.Max(sa, sb)

	inter := e.CountA + e.CountB - e.Union
	if lim := math.Min(e.CountA, e.CountB); inter > lim {
		inter = lim
	}
	if inter < 0 {
		inter = 0
	}
	e.Intersection = inter
	if e.Union > 0 {
		e.Jaccard = inter / e.Union
	}
	if e.CountA > 0 {
		e.ContainmentAinB = math.Min(1, inter/e.CountA)
	}
	if e.CountB > 0 {
		e.ContainmentBinA = math.Min(1, inter/e.CountB)
	}
	return e, nil
}
