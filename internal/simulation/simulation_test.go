package simulation

import (
	"math"
	"testing"

	"exaloglog/internal/core"
	"exaloglog/internal/mvp"
)

func TestCheckpoints(t *testing.T) {
	cps := Checkpoints(1e6, 3)
	if cps[0] != 1 {
		t.Errorf("first checkpoint %g, want 1", cps[0])
	}
	if cps[len(cps)-1] != 1e6 {
		t.Errorf("last checkpoint %g, want 1e6", cps[len(cps)-1])
	}
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatalf("checkpoints not strictly increasing at %d: %v", i, cps[i-1:i+1])
		}
	}
	// Roughly 3 per decade over 6 decades.
	if len(cps) < 15 || len(cps) > 25 {
		t.Errorf("unexpected checkpoint count %d", len(cps))
	}
}

func TestRunELLDirectOnly(t *testing.T) {
	cfg := core.Config{T: 2, D: 20, P: 6}
	cps := []float64{1, 10, 100, 1000}
	res := RunELL(cfg, cps, 1e6, 42, true)
	if len(res) != len(cps) {
		t.Fatalf("got %d results, want %d", len(res), len(cps))
	}
	for i, r := range res {
		if r.N != cps[i] {
			t.Errorf("result %d at n=%g, want %g", i, r.N, cps[i])
		}
		if relErr := math.Abs(r.ML-r.N) / r.N; relErr > 0.5 {
			t.Errorf("n=%g: ML estimate %.1f far off", r.N, r.ML)
		}
		if relErr := math.Abs(r.Martingale-r.N) / r.N; relErr > 0.5 {
			t.Errorf("n=%g: martingale estimate %.1f far off", r.N, r.Martingale)
		}
	}
}

// TestFastSimulationConsistentWithDirect is the core validity check of the
// waiting-time strategy: at the same checkpoint, the RMSE measured with a
// low direct limit (fast path active) must agree with the fully direct
// simulation within statistical tolerance.
func TestFastSimulationConsistentWithDirect(t *testing.T) {
	cfg := core.Config{T: 2, D: 20, P: 4}
	const n = 20000
	const runs = 150
	cps := []float64{n}
	var direct, fast ErrorStats
	for run := 0; run < runs; run++ {
		seed := uint64(run)*2654435761 + 1
		rd := RunELL(cfg, cps, 1e9, seed, false)
		direct.Add(rd[0].ML, n)
		rf := RunELL(cfg, cps, 100, seed+1e6, false)
		fast.Add(rf[0].ML, n)
	}
	rd, rf := direct.RMSE(), fast.RMSE()
	if math.Abs(rd-rf) > 0.5*math.Max(rd, rf) {
		t.Errorf("direct RMSE %.4f vs fast RMSE %.4f disagree", rd, rf)
	}
	// Both must be in the ballpark of the theoretical RMSE.
	theory := mvp.TheoreticalRMSE(2, 20, 4, false)
	for name, got := range map[string]float64{"direct": rd, "fast": rf} {
		if got < theory*0.6 || got > theory*1.6 {
			t.Errorf("%s RMSE %.4f vs theory %.4f", name, got, theory)
		}
	}
}

// TestMartingaleExaScale exercises the fast path far beyond 2^53 to the
// exa-scale and checks estimates stay sane (Figure 8's right edge).
func TestMartingaleExaScale(t *testing.T) {
	cfg := core.Config{T: 2, D: 20, P: 4}
	cps := []float64{1e9, 1e12, 1e15, 1e18}
	var stats [4]ErrorStats
	const runs = 30
	for run := 0; run < runs; run++ {
		res := RunELL(cfg, cps, 1000, uint64(run)*7+3, true)
		for i, r := range res {
			stats[i].Add(r.ML, r.N)
		}
	}
	for i, cp := range cps {
		rmse := stats[i].RMSE()
		// Theoretical RMSE at p=4 is ≈ 9 %; allow wide tolerance for 30
		// runs but catch catastrophic breakage (e.g. float overflow).
		if math.IsNaN(rmse) || rmse > 0.35 {
			t.Errorf("n=%g: RMSE %.4f implausible", cp, rmse)
		}
	}
}

func TestRunTokens(t *testing.T) {
	cps := []float64{10, 100, 1000}
	res := RunTokens(12, cps, 99)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if relErr := math.Abs(r.Estimate-r.N) / r.N; relErr > 0.5 {
			t.Errorf("n=%g: token estimate %.1f", r.N, r.Estimate)
		}
		if r.Tokens <= 0 || float64(r.Tokens) > r.N {
			t.Errorf("n=%g: token count %d out of range", r.N, r.Tokens)
		}
	}
}

func TestErrorStats(t *testing.T) {
	var e ErrorStats
	if !math.IsNaN(e.Bias()) || !math.IsNaN(e.RMSE()) {
		t.Error("empty stats should be NaN")
	}
	e.Add(110, 100) // +10 %
	e.Add(90, 100)  // -10 %
	if got := e.Bias(); math.Abs(got) > 1e-12 {
		t.Errorf("bias = %g, want 0", got)
	}
	if got := e.RMSE(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RMSE = %g, want 0.1", got)
	}
	if e.runs != 2 {
		t.Errorf("runs = %d", e.runs)
	}
}

// TestReproducibility: identical seeds must give identical results.
func TestReproducibility(t *testing.T) {
	cfg := core.Config{T: 1, D: 9, P: 4}
	cps := []float64{100, 10000, 1e8}
	a := RunELL(cfg, cps, 1000, 12345, true)
	b := RunELL(cfg, cps, 1000, 12345, true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at checkpoint %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRMSEMatchesTheoryAtModeratePrecision is a light version of Figure 8:
// at p=6 and n=10^4 the empirical RMSE over a few hundred runs must match
// the theoretical prediction within ~15 %.
func TestRMSEMatchesTheoryAtModeratePrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	cfg := core.Config{T: 2, D: 20, P: 6}
	const runs = 300
	cps := []float64{10000}
	var ml, mart ErrorStats
	for run := 0; run < runs; run++ {
		res := RunELL(cfg, cps, 500, uint64(run)*31+7, true)
		ml.Add(res[0].ML, res[0].N)
		mart.Add(res[0].Martingale, res[0].N)
	}
	thML := mvp.TheoreticalRMSE(2, 20, 6, false)
	thMart := mvp.TheoreticalRMSE(2, 20, 6, true)
	if got := ml.RMSE(); math.Abs(got-thML)/thML > 0.15 {
		t.Errorf("ML RMSE %.4f vs theory %.4f", got, thML)
	}
	if got := mart.RMSE(); math.Abs(got-thMart)/thMart > 0.15 {
		t.Errorf("martingale RMSE %.4f vs theory %.4f", got, thMart)
	}
	// Bias must be far below the RMSE.
	if bias := math.Abs(ml.Bias()); bias > thML/3 {
		t.Errorf("ML bias %.4f too large vs RMSE %.4f", bias, thML)
	}
}
