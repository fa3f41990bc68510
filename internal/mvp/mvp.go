// Package mvp implements the paper's theoretical space-efficiency formulas.
//
// The memory-variance product (MVP, equation (1)) is the relative variance
// of an unbiased distinct-count estimate multiplied by the state size in
// bits. For the generalized data structure underlying ExaLogLog the paper
// gives four closed forms, all parameterized by the base b of the update
// value distribution and the number d of extra indicator bits:
//
//	(3) dense registers, efficient unbiased (ML) estimator
//	(5) optimally compressed state, efficient unbiased estimator
//	(6) dense registers, martingale estimator
//	(7) optimally compressed state, martingale estimator
//
// ExaLogLog replaces the geometric update distribution with the
// approximated distribution (8); the two coincide for b = 2^(2^-t), so all
// formulas are evaluated at that base. These functions regenerate Figures
// 1, 2 and 4-7 and predict the RMSE curves of Figure 8.
package mvp

import (
	"fmt"
	"math"

	"exaloglog/internal/zeta"
)

// Base returns the geometric base b = 2^(2^-t) that the approximated update
// value distribution (8) with parameter t mimics.
func Base(t int) float64 {
	if t < 0 {
		panic(fmt.Sprintf("mvp: negative t=%d", t))
	}
	return math.Exp2(math.Exp2(-float64(t)))
}

// y computes the recurring quantity b^(-d)/(b-1).
func y(b float64, d int) float64 {
	return math.Pow(b, -float64(d)) / (b - 1)
}

// DenseML evaluates equation (3): the asymptotic MVP for registers stored
// densely in a bit array and an efficient unbiased estimator meeting the
// Cramér-Rao bound. q is the number of bits for the maximum update value
// (q = 6+t for exa-scale support).
func DenseML(b float64, q, d int) float64 {
	return float64(q+d) * math.Log(b) / zeta.Hurwitz(2, 1+y(b, d))
}

// DenseMartingale evaluates equation (6): the asymptotic MVP for dense
// registers and the martingale (HIP) estimator.
func DenseMartingale(b float64, q, d int) float64 {
	return float64(q+d) * math.Log(b) / 2 * (1 + y(b, d))
}

// CompressedML evaluates equation (5): the asymptotic MVP under optimal
// (Shannon-entropy) compression of the state with an efficient unbiased
// estimator. This is the Fisher-Shannon (FISH) number of the sketch; the
// conjectured lower bound for mergeable, reproducible sketches is 1.98.
func CompressedML(b float64, d int) float64 {
	yy := y(b, d)
	num := 1/(1+yy) + zeta.CompressedIntegral(yy)
	return num / (zeta.Hurwitz(2, 1+yy) * math.Ln2)
}

// CompressedMartingale evaluates equation (7): the asymptotic MVP under
// optimal compression with the martingale estimator. Its lower bound 1.63
// is the theoretical limit for non-mergeable sketches.
func CompressedMartingale(b float64, d int) float64 {
	yy := y(b, d)
	return (1 + (1+yy)*zeta.CompressedIntegral(yy)) / (2 * math.Ln2)
}

// TheoreticalRMSE returns the relative standard error sqrt(MVP/((q+d)·m))
// predicted for a dense ELL sketch with m = 2^p registers (Section 5.1),
// for either the ML (martingale=false) or martingale estimator.
func TheoreticalRMSE(t, d, p int, martingale bool) float64 {
	b := Base(t)
	q := 6 + t
	var v float64
	if martingale {
		v = DenseMartingale(b, q, d)
	} else {
		v = DenseML(b, q, d)
	}
	m := math.Exp2(float64(p))
	return math.Sqrt(v / (float64(q+d) * m))
}

// MemoryForError returns the state size in bytes needed to reach the given
// relative standard error under a given MVP, following equation (1) and
// Figure 1: bits = MVP / err², bytes = bits/8.
func MemoryForError(mvpValue, relErr float64) float64 {
	return mvpValue / (relErr * relErr) / 8
}

// GeometricPMF returns ρ_update(k) of equation (2): (b-1)·b^-k for k ≥ 1.
func GeometricPMF(b float64, k int) float64 {
	if k < 1 {
		return 0
	}
	return (b - 1) * math.Pow(b, -float64(k))
}

// ApproximatePMF returns ρ_update(k) of equation (8):
// 2^-(t+1+⌊(k-1)/2^t⌋) for k ≥ 1. Chunks of 2^t consecutive update values
// share the total probability 2^-(c+1) with the geometric distribution of
// base 2^(2^-t), which is why (8) approximates (2).
func ApproximatePMF(t, k int) float64 {
	if k < 1 {
		return 0
	}
	return math.Exp2(-float64(t + 1 + (k-1)>>uint(t)))
}

// Point is one (x, y) sample of a generated figure series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points, one line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure1 generates the memory-over-error lines of Figure 1 for the given
// MVPs, sampling relative standard errors between 1% and 5%.
func Figure1(mvps []float64) []Series {
	var out []Series
	for _, v := range mvps {
		s := Series{Label: fmt.Sprintf("MVP = %g", v)}
		for e := 0.010; e <= 0.0501; e += 0.001 {
			s.Points = append(s.Points, Point{X: e * 100, Y: MemoryForError(v, e)})
		}
		out = append(out, s)
	}
	return out
}

// Figure2 generates the PMF comparison of Figure 2 for a given t: the
// geometric distribution with b = 2^(2^-t) against the approximate
// distribution (8), for k = 1..kmax.
func Figure2(t, kmax int) (geometric, approximate Series) {
	b := Base(t)
	geometric.Label = fmt.Sprintf("geometric b=2^(1/%d)", 1<<uint(t-0)/1)
	geometric.Label = fmt.Sprintf("geometric b=%.6g", b)
	approximate.Label = fmt.Sprintf("approximate t=%d", t)
	for k := 1; k <= kmax; k++ {
		geometric.Points = append(geometric.Points, Point{X: float64(k), Y: GeometricPMF(b, k)})
		approximate.Points = append(approximate.Points, Point{X: float64(k), Y: ApproximatePMF(t, k)})
	}
	return geometric, approximate
}

// CurveKind selects which of the four MVP formulas a Figure 4-7 curve uses.
type CurveKind int

const (
	// KindDenseML is Figure 4 (equation 3).
	KindDenseML CurveKind = iota
	// KindDenseMartingale is Figure 5 (equation 6).
	KindDenseMartingale
	// KindCompressedML is Figure 6 (equation 5).
	KindCompressedML
	// KindCompressedMartingale is Figure 7 (equation 7).
	KindCompressedMartingale
)

// Curve computes MVP(d) for d = 0..dmax at parameter t, using q = 6+t and
// b = 2^(2^-t) as in Figures 4-7.
func Curve(kind CurveKind, t, dmax int) Series {
	b := Base(t)
	q := 6 + t
	s := Series{Label: fmt.Sprintf("t=%d", t)}
	for d := 0; d <= dmax; d++ {
		var v float64
		switch kind {
		case KindDenseML:
			v = DenseML(b, q, d)
		case KindDenseMartingale:
			v = DenseMartingale(b, q, d)
		case KindCompressedML:
			v = CompressedML(b, d)
		case KindCompressedMartingale:
			v = CompressedMartingale(b, d)
		default:
			panic(fmt.Sprintf("mvp: unknown curve kind %d", kind))
		}
		s.Points = append(s.Points, Point{X: float64(d), Y: v})
	}
	return s
}

// Minimum returns the point with the smallest Y of a series.
func Minimum(s Series) Point {
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if p.Y < best.Y {
			best = p
		}
	}
	return best
}
