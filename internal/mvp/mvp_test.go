package mvp

import (
	"math"
	"testing"
)

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f (±%.3g)", name, got, want, tol)
	}
}

func TestBase(t *testing.T) {
	within(t, "Base(0)", Base(0), 2, 1e-15)
	within(t, "Base(1)", Base(1), math.Sqrt2, 1e-15)
	within(t, "Base(2)", Base(2), math.Pow(2, 0.25), 1e-15)
	within(t, "Base(3)", Base(3), math.Pow(2, 0.125), 1e-15)
}

// TestPaperHeadlineMVPs pins the named MVP values from the paper:
// HLL 6.45 (6-bit registers), ULL 4.63 (28 % better), ELL(2,20) 3.67
// (43 % better), ELL(2,24) 3.78, ELL(1,9) 3.90, and the martingale optimum
// ELL(2,16) 2.77 (33 % better than HLL's 4.16).
func TestPaperHeadlineMVPs(t *testing.T) {
	// Special cases of the generalized structure (Section 2.5):
	// HLL = ELL(0,0), EHLL = ELL(0,1), ULL = ELL(0,2).
	within(t, "HLL dense ML MVP", DenseML(2, 6, 0), 6.449, 0.005)
	within(t, "ULL dense ML MVP", DenseML(2, 6, 2), 4.631, 0.005)

	within(t, "ELL(2,20) dense ML MVP", DenseML(Base(2), 8, 20), 3.67, 0.03)
	within(t, "ELL(2,24) dense ML MVP", DenseML(Base(2), 8, 24), 3.78, 0.03)
	within(t, "ELL(1,9) dense ML MVP", DenseML(Base(1), 7, 9), 3.90, 0.03)

	within(t, "HLL martingale MVP", DenseMartingale(2, 6, 0), 4.159, 0.005)
	within(t, "ELL(2,16) martingale MVP", DenseMartingale(Base(2), 8, 16), 2.77, 0.01)
}

// TestHeadlineSavings pins the headline percentages: ELL(2,20) needs 43 %
// less space than 6-bit HLL at equal error; martingale ELL(2,16) saves 33 %.
func TestHeadlineSavings(t *testing.T) {
	hll := DenseML(2, 6, 0)
	ell := DenseML(Base(2), 8, 20)
	saving := 1 - ell/hll
	within(t, "ELL(2,20) space saving vs HLL", saving, 0.43, 0.01)

	hllM := DenseMartingale(2, 6, 0)
	ellM := DenseMartingale(Base(2), 8, 16)
	within(t, "martingale saving vs HLL", 1-ellM/hllM, 0.33, 0.01)
}

// TestFigure4Minima checks the arrows of Figure 4: the minimum of the t=2
// curve is at d=20. For t=1 the curve is nearly flat around d=8-9; the
// paper highlights ELL(1,9) because 6+1+9 = 16-bit registers are
// byte-aligned, so we only require the minimum to fall in that flat region
// and the d=9 point to be within 1 % of it.
func TestFigure4Minima(t *testing.T) {
	c2 := Curve(KindDenseML, 2, 60)
	if min := Minimum(c2); min.X != 20 {
		t.Errorf("t=2 dense-ML minimum at d=%g, want 20", min.X)
	}
	c1 := Curve(KindDenseML, 1, 60)
	min := Minimum(c1)
	if min.X < 8 || min.X > 9 {
		t.Errorf("t=1 dense-ML minimum at d=%g, want 8 or 9", min.X)
	}
	d9 := c1.Points[9].Y
	if d9 > min.Y*1.01 {
		t.Errorf("t=1 d=9 MVP %.4f more than 1%% above minimum %.4f", d9, min.Y)
	}
}

// TestFigure5Minimum checks that the martingale-optimal configuration is
// t=2, d=16 (Figure 5).
func TestFigure5Minimum(t *testing.T) {
	c2 := Curve(KindDenseMartingale, 2, 60)
	if min := Minimum(c2); min.X != 16 {
		t.Errorf("t=2 martingale minimum at d=%g, want 16", min.X)
	}
}

// TestCompressedBounds checks the compressed-state formulas against the
// paper's reference points: HLL's FISH number ≈ 2.9-3.1 (Figure 6 top),
// the compressed martingale value for HLL ≈ 1.98, and the 1.63 limit.
func TestCompressedBounds(t *testing.T) {
	fish := CompressedML(2, 0)
	if fish < 2.8 || fish > 3.2 {
		t.Errorf("HLL FISH number = %.3f, want within [2.8, 3.2]", fish)
	}
	within(t, "HLL compressed martingale MVP", CompressedMartingale(2, 0), 1.98, 0.02)

	// All compressed-ML values must respect the conjectured 1.98 bound.
	for _, tt := range []int{0, 1, 2, 3} {
		for d := 0; d <= 60; d += 5 {
			v := CompressedML(Base(tt), d)
			if v < 1.98-0.02 {
				t.Errorf("CompressedML(t=%d, d=%d) = %.3f violates the 1.98 conjectured bound", tt, d, v)
			}
		}
	}
	// ...and compressed-martingale values the 1.63 limit.
	for _, tt := range []int{0, 1, 2, 3} {
		for d := 0; d <= 60; d += 5 {
			v := CompressedMartingale(Base(tt), d)
			if v < 1.63-0.02 {
				t.Errorf("CompressedMartingale(t=%d, d=%d) = %.3f violates the 1.63 limit", tt, d, v)
			}
		}
	}
}

// TestFigure6PrefersD24 verifies the paper's remark that with compression
// t=2, d=24 is probably more efficient than d=20 or d=16 (Section 2.4).
func TestFigure6PrefersD24(t *testing.T) {
	b := Base(2)
	v16 := CompressedML(b, 16)
	v20 := CompressedML(b, 20)
	v24 := CompressedML(b, 24)
	if !(v24 < v20 && v20 < v16) {
		t.Errorf("compressed MVP ordering: d=16 %.3f, d=20 %.3f, d=24 %.3f; want strictly decreasing", v16, v20, v24)
	}
}

func TestApproximatePMFSumsToOne(t *testing.T) {
	for _, tt := range []int{0, 1, 2, 3} {
		sum := 0.0
		for k := 1; k <= 4096; k++ {
			sum += ApproximatePMF(tt, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("t=%d: ΣρPMF = %.12f, want 1", tt, sum)
		}
	}
}

// TestChunkProbabilityMatch verifies the property below equation (8): each
// chunk of 2^t consecutive update values carries total probability 2^-(c+1)
// under both the geometric and the approximate distribution.
func TestChunkProbabilityMatch(t *testing.T) {
	for _, tt := range []int{0, 1, 2, 3} {
		b := Base(tt)
		w := 1 << uint(tt)
		for c := 0; c < 12; c++ {
			var sg, sa float64
			for k := c*w + 1; k <= c*w+w; k++ {
				sg += GeometricPMF(b, k)
				sa += ApproximatePMF(tt, k)
			}
			want := math.Exp2(-float64(c + 1))
			if math.Abs(sg-want) > 1e-12 {
				t.Errorf("t=%d chunk %d: geometric sum %.15f, want %.15f", tt, c, sg, want)
			}
			if math.Abs(sa-want) > 1e-12 {
				t.Errorf("t=%d chunk %d: approximate sum %.15f, want %.15f", tt, c, sa, want)
			}
		}
	}
}

func TestTheoreticalRMSE(t *testing.T) {
	// ELL(2,20,p=8): RMSE = sqrt(3.67/(28·256)) ≈ 2.26 % — the Table 2 row.
	got := TheoreticalRMSE(2, 20, 8, false)
	within(t, "RMSE ELL(2,20,8)", got, 0.0226, 0.0003)
	// Martingale is always at least as accurate.
	for _, p := range []int{4, 6, 8, 10} {
		ml := TheoreticalRMSE(2, 20, p, false)
		mart := TheoreticalRMSE(2, 20, p, true)
		if mart > ml {
			t.Errorf("p=%d: martingale RMSE %.5f > ML RMSE %.5f", p, mart, ml)
		}
	}
	// Error scales as 2^(-p/2).
	r4 := TheoreticalRMSE(2, 20, 4, false)
	r10 := TheoreticalRMSE(2, 20, 10, false)
	within(t, "RMSE ratio p=4 vs p=10", r4/r10, 8, 1e-9)
}

func TestMemoryForError(t *testing.T) {
	// Figure 1: at 2 % error and MVP 6, memory = 6/0.0004/8 = 1875 bytes.
	within(t, "MemoryForError(6, 2%)", MemoryForError(6, 0.02), 1875, 1e-9)
	series := Figure1([]float64{2, 3, 4, 5, 6, 8})
	if len(series) != 6 {
		t.Fatalf("Figure1 returned %d series, want 6", len(series))
	}
	for _, s := range series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y >= s.Points[i-1].Y {
				t.Fatalf("%s: memory not decreasing with error", s.Label)
			}
		}
	}
}

func TestFigure2Series(t *testing.T) {
	g, a := Figure2(2, 20)
	if len(g.Points) != 20 || len(a.Points) != 20 {
		t.Fatalf("Figure2 lengths: %d, %d; want 20, 20", len(g.Points), len(a.Points))
	}
	// The approximate PMF is a staircase: constant within chunks of 2^t.
	if a.Points[0].Y != a.Points[3].Y {
		t.Error("approximate PMF should be constant over the first chunk of 4 values")
	}
	if a.Points[3].Y == a.Points[4].Y {
		t.Error("approximate PMF should drop between chunks")
	}
}
