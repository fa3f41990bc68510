package core

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// logLikelihood evaluates ln L of equation (15) directly — the oracle used
// to validate the Newton solver.
func logLikelihood(c Coefficients, m, n float64) float64 {
	ll := -n / m * c.Alpha
	for j, b := range c.Beta {
		if b > 0 {
			u := float64(c.Lo + j)
			ll += float64(b) * math.Log(-math.Expm1(-n/(m*math.Exp2(u))))
		}
	}
	return ll
}

// mlCoefficients returns the sketch's Algorithm 3 coefficients.
func (s *Sketch) mlCoefficients() Coefficients {
	acc := new(mlAccum)
	s.accumulate(acc)
	return acc.coefficients()
}

// bitAccum is Algorithm 3 as the paper states it, one indicator bit at a
// time: the reference mlAccum's φ-group kernel must match bit for bit.
type bitAccum struct {
	cfg      Config
	aHi, aLo uint64
	beta     [64]int32
}

func (a *bitAccum) addAlpha(x uint64) {
	var carry uint64
	a.aLo, carry = bits.Add64(a.aLo, x, 0)
	a.aHi += carry
}

func (a *bitAccum) addRegister(r uint64) {
	cfg := a.cfg
	lo := cfg.T + 1
	u := int64(r >> uint(cfg.D))
	a.addAlpha(uint64(cfg.omegaNumerator(u)) << uint(64-cfg.P-cfg.phi(u)))
	if u < 1 {
		return
	}
	a.beta[cfg.phi(u)-lo]++
	for k := max(u-int64(cfg.D), 1); k < u; k++ {
		j := cfg.phi(k)
		if r&(uint64(1)<<uint(int64(cfg.D)-u+k)) == 0 {
			a.addAlpha(uint64(1) << uint(64-cfg.P-j))
		} else {
			a.beta[j-lo]++
		}
	}
}

func (a *bitAccum) coefficients() Coefficients {
	p := a.cfg.P
	alpha := math.Ldexp(float64(a.aHi), p) + math.Ldexp(float64(a.aLo), p-64)
	return Coefficients{Alpha: alpha, Beta: a.beta[:64-p-a.cfg.T], Lo: a.cfg.T + 1}
}

// sameCoefficients reports whether two coefficient sets are bit-identical.
func sameCoefficients(a, b Coefficients) bool {
	return math.Float64bits(a.Alpha) == math.Float64bits(b.Alpha) && a.Lo == b.Lo && slices.Equal(a.Beta, b.Beta)
}

// checkByGroup feeds regs to both accumulators and fails unless their
// coefficients are bit-identical.
func checkByGroup(t *testing.T, cfg Config, regs ...uint64) {
	t.Helper()
	got, want := mlAccum{cfg: cfg}, bitAccum{cfg: cfg}
	for _, r := range regs {
		got.addRegister(r)
		want.addRegister(r)
	}
	if g, w := got.coefficients(), want.coefficients(); !sameCoefficients(g, w) {
		t.Fatalf("cfg %+v, registers %#x: by φ-group α=%v β=%v, bit by bit α=%v β=%v", cfg, regs, g.Alpha, g.Beta, w.Alpha, w.Beta)
	}
}

// TestCoefficientsByGroupOnSketches checks the φ-group kernel against
// the bitwise reference on filled sketches of every test configuration,
// from empty to saturated-high fill levels.
func TestCoefficientsByGroupOnSketches(t *testing.T) {
	for _, cfg := range testConfigs {
		for _, n := range []int{0, 1, 100, 10000, 1000000} {
			s := MustNew(cfg)
			fillRandom(s, n, int64(n)+int64(cfg.D))
			regs := make([]uint64, cfg.NumRegisters())
			for i := range regs {
				regs[i] = s.regs.Get(i)
			}
			checkByGroup(t, cfg, regs...)
		}
	}
}

// TestTokenRunFold checks the branch-free fold of a register's token run
// against Algorithm 2: the coefficients accumulated from a sorted token
// sequence equal a dense scan's, bit for bit, for every paper
// configuration. At p = 2 a register's run grows to hundreds of tokens,
// which arrive out of update-value order and reach past the d indicator
// bits. The tokens are read plain, not encoded, so that no break-even
// bounds how many there are.
func TestTokenRunFold(t *testing.T) {
	for _, td := range paperConfigs {
		for _, p := range []int{2, 6, 12} {
			cfg := Config{T: td[0], D: td[1], P: p}
			r := rng(int64(40*p + cfg.D))
			for _, n := range []int{1, 10, 100, 3000} {
				s, hashes := MustNew(cfg), make([]uint64, n)
				for i := range hashes {
					hashes[i] = r.Uint64()
					s.AddHash(hashes[i])
				}
				tokens := cfg.tokensOf(hashes)
				var got, want mlAccum
				cfg.accumulateTokens(&got, tokenSeq{words: tokens, n: len(tokens)})
				s.accumulate(&want)
				if g, w := got.coefficients(), want.coefficients(); !sameCoefficients(g, w) {
					t.Fatalf("%+v, %d hashes: from tokens α=%v β=%v, dense α=%v β=%v", cfg, n, g.Alpha, g.Beta, w.Alpha, w.Beta)
				}
			}
		}
	}
}

func fillRandom(s *Sketch, n int, seed int64) {
	r := rng(seed)
	for i := 0; i < n; i++ {
		s.AddHash(r.Uint64())
	}
}

func TestEstimateEmpty(t *testing.T) {
	for _, cfg := range testConfigs {
		s := MustNew(cfg)
		if got := s.EstimateML(); got != 0 {
			t.Errorf("cfg %+v: empty estimate = %g, want 0", cfg, got)
		}
	}
}

func TestEstimateSmallExact(t *testing.T) {
	// For a handful of elements the ML estimate should be very close to
	// exact (the paper observes near-zero error for small n).
	for _, cfg := range []Config{{T: 2, D: 20, P: 8}, {T: 1, D: 9, P: 10}, {T: 0, D: 2, P: 10}} {
		for _, n := range []int{1, 2, 3, 5, 10} {
			s := MustNew(cfg)
			fillRandom(s, n, int64(n)*31+7)
			got := s.EstimateML()
			if math.Abs(got-float64(n)) > 0.25*float64(n)+1.0 {
				t.Errorf("cfg %+v: n=%d estimated as %.2f", cfg, n, got)
			}
		}
	}
}

// TestEstimateAccuracy checks that for a range of distinct counts the ML
// estimate stays within ~5 standard errors of the truth (per the
// theoretical RMSE sqrt(MVP/((q+d)m)) of Section 5.1).
func TestEstimateAccuracy(t *testing.T) {
	cases := []struct {
		cfg      Config
		relTol   float64 // ≈ 5x theoretical RMSE
		distinct []int
	}{
		{Config{T: 2, D: 20, P: 8}, 0.12, []int{100, 1000, 10000}},
		{Config{T: 2, D: 24, P: 8}, 0.12, []int{100, 1000, 10000}},
		{Config{T: 1, D: 9, P: 8}, 0.12, []int{500, 5000}},
		{Config{T: 0, D: 2, P: 10}, 0.12, []int{1000, 20000}},
		{Config{T: 0, D: 0, P: 10}, 0.14, []int{1000, 20000}},
	}
	for _, c := range cases {
		for _, n := range c.distinct {
			s := MustNew(c.cfg)
			fillRandom(s, n, int64(n)+42)
			got := s.EstimateML()
			if relErr := math.Abs(got-float64(n)) / float64(n); relErr > c.relTol {
				t.Errorf("cfg %+v n=%d: estimate %.1f (rel err %.3f > %.3f)", c.cfg, n, got, relErr, c.relTol)
			}
		}
	}
}

// TestNewtonSolverMaximizesLikelihood validates Algorithm 8 against the
// oracle: perturbing the solver's root by ±1 % must not increase ln L.
func TestNewtonSolverMaximizesLikelihood(t *testing.T) {
	for _, cfg := range testConfigs {
		for _, n := range []int{3, 17, 100, 1000} {
			s := MustNew(cfg)
			fillRandom(s, n, int64(n)*13+int64(cfg.P))
			c := s.mlCoefficients()
			m := float64(cfg.NumRegisters())
			nHat := SolveML(c, m)
			if nHat <= 0 {
				t.Fatalf("cfg %+v n=%d: nonpositive estimate %g", cfg, n, nHat)
			}
			ll := logLikelihood(c, m, nHat)
			for _, f := range []float64{0.99, 1.01, 0.9, 1.1} {
				if other := logLikelihood(c, m, nHat*f); other > ll+1e-9 {
					t.Errorf("cfg %+v n=%d: lnL(%.4g·%.2f) = %.12f > lnL at root %.12f",
						cfg, n, nHat, f, other, ll)
				}
			}
		}
	}
}

// TestMLCoefficientsAlphaBounds: α must lie in (0, m] for any non-saturated
// state, and equal exactly m for an empty sketch (each register
// contributes ω(0) = 1, and the -(n/m)·α term of (15) then reproduces
// Σ_i ln ρ_reg(0|n) = -n).
func TestMLCoefficientsAlphaBounds(t *testing.T) {
	for _, cfg := range testConfigs {
		m := float64(cfg.NumRegisters())
		s := MustNew(cfg)
		c := s.mlCoefficients()
		if c.Alpha != m {
			t.Errorf("cfg %+v: empty-sketch α = %.17g, want exactly m = %g", cfg, c.Alpha, m)
		}
		fillRandom(s, 5000, 99)
		c = s.mlCoefficients()
		if c.Alpha <= 0 || c.Alpha > m {
			t.Errorf("cfg %+v: α = %g out of (0, %g]", cfg, c.Alpha, m)
		}
	}
}

// TestMLCoefficientsAlphaEqualsMu: the α' accumulator of Algorithm 3 and
// the martingale's scaled state-change probability μ·2^64 are the same sum
// of per-register hInt values, so α = μ·m holds exactly.
func TestMLCoefficientsAlphaEqualsMu(t *testing.T) {
	cfg := Config{T: 2, D: 16, P: 6}
	s := MustNew(cfg)
	if err := s.EnableMartingale(); err != nil {
		t.Fatal(err)
	}
	fillRandom(s, 3000, 5)
	c := s.mlCoefficients()
	mu := s.StateChangeProbability()
	m := float64(cfg.NumRegisters())
	if math.Abs(c.Alpha-mu*m) > 1e-9 {
		t.Errorf("α = %.17g but μ·m = %.17g; they must coincide", c.Alpha, mu*m)
	}
}

func TestBiasCorrectionConstantPositive(t *testing.T) {
	for _, tt := range []int{0, 1, 2} {
		for _, d := range []int{0, 2, 9, 16, 20, 24} {
			c := biasConstant(tt, d)
			if c <= 0 || c > 10 {
				t.Errorf("c(t=%d, d=%d) = %.4f out of plausible range", tt, d, c)
			}
		}
	}
}

func TestBiasCorrectionShrinksEstimate(t *testing.T) {
	s := MustNew(Config{T: 2, D: 20, P: 4})
	fillRandom(s, 1000, 11)
	raw := s.EstimateMLUncorrected()
	corrected := s.EstimateML()
	if corrected >= raw {
		t.Errorf("bias correction did not shrink the estimate: raw %.2f, corrected %.2f", raw, corrected)
	}
	// The correction factor is (1+c/m)^-1 with c ≈ 0.8-2; for p=4 the
	// shrinkage should be on the order of a few percent but below 20 %.
	ratio := corrected / raw
	if ratio < 0.8 || ratio >= 1 {
		t.Errorf("correction ratio %.4f out of plausible range", ratio)
	}
}

func TestEstimateSaturated(t *testing.T) {
	// A fully saturated sketch (all registers at their maximum content)
	// has α = 0 and an infinite ML estimate.
	cfg := Config{T: 0, D: 2, P: 2}
	s := MustNew(cfg)
	maxReg := cfg.MaxUpdateValue()<<uint(cfg.D) | (uint64(1)<<uint(cfg.D) - 1)
	for i := 0; i < cfg.NumRegisters(); i++ {
		s.setRegister(i, maxReg)
	}
	if got := s.EstimateMLUncorrected(); !math.IsInf(got, 1) {
		t.Errorf("saturated sketch estimate = %g, want +Inf", got)
	}
}

func TestEstimatePrefersMartingale(t *testing.T) {
	s := MustNew(Config{T: 2, D: 16, P: 8})
	if err := s.EnableMartingale(); err != nil {
		t.Fatal(err)
	}
	fillRandom(s, 500, 3)
	if s.Estimate() != s.EstimateMartingale() {
		t.Error("Estimate() should return the martingale estimate when enabled")
	}
	other := MustNew(Config{T: 2, D: 16, P: 8})
	if err := s.Merge(other); err != nil {
		t.Fatal(err)
	}
	if s.MartingaleEnabled() {
		t.Error("merge must disable martingale estimation")
	}
	if math.IsNaN(s.Estimate()) {
		t.Error("Estimate() after merge should fall back to ML")
	}
}

// TestNewtonIterationCount asserts Appendix A's convergence claim: the
// Newton iteration never needs more than 10 steps, and on average takes
// 5-7, across configurations and distinct counts.
func TestNewtonIterationCount(t *testing.T) {
	totalIters, solves := 0, 0
	for _, cfg := range testConfigs {
		for _, n := range []int{1, 10, 100, 1000, 10000} {
			s := MustNew(cfg)
			fillRandom(s, n, int64(n)*7+int64(cfg.D))
			_, iters := SolveMLCounted(s.mlCoefficients(), float64(cfg.NumRegisters()))
			if iters > 10 {
				t.Errorf("cfg %+v n=%d: %d Newton iterations, paper bound is 10", cfg, n, iters)
			}
			totalIters += iters
			solves++
		}
	}
	if avg := float64(totalIters) / float64(solves); avg > 8 {
		t.Errorf("average Newton iterations %.1f, expected 5-7", avg)
	}
}

func TestSolveMLDegenerateInputs(t *testing.T) {
	// All-zero β → 0.
	c := Coefficients{Alpha: 1, Beta: make([]int32, 10), Lo: 3}
	if got := SolveML(c, 16); got != 0 {
		t.Errorf("all-zero β: got %g, want 0", got)
	}
	// Single β term: closed-form root x = β/(α·2^u).
	c = Coefficients{Alpha: 0.5, Beta: []int32{0, 4, 0}, Lo: 3}
	m := 8.0
	got := SolveML(c, m)
	want := m * math.Exp2(4) * math.Log1p(4.0/(0.5*math.Exp2(4)))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("single-term root: got %.12f, want %.12f", got, want)
	}
}
