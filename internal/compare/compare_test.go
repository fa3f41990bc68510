package compare

import (
	"math"
	"slices"
	"testing"

	"exaloglog/internal/hashing"
)

func TestAllAlgorithmsBasicContract(t *testing.T) {
	for _, a := range Figure11Algorithms() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			c := a.New()
			if got := c.Estimate(); got != 0 {
				t.Errorf("empty estimate = %g, want 0", got)
			}
			state := uint64(7)
			const n = 20000
			for i := 0; i < n; i++ {
				c.AddHash(hashing.SplitMix64(&state))
			}
			est := c.Estimate()
			if relErr := math.Abs(est-n) / n; relErr > 0.25 {
				t.Errorf("estimate %.0f at n=%d (rel err %.3f)", est, n, relErr)
			}
			if c.MemoryFootprint() <= 0 {
				t.Error("nonpositive memory footprint")
			}
			if len(a.Serialize(c)) == 0 {
				t.Error("empty serialization")
			}
		})
	}
}

// TestMergeContract merges every distinct algorithm of Figures 10 and 11
// that can merge, and checks that the HIP-tracking HLL is the only one that
// cannot.
func TestMergeContract(t *testing.T) {
	seen := map[string]bool{}
	var cannot []string
	for _, a := range append(Figure10Algorithms(), Figure11Algorithms()...) {
		if seen[a.Name] {
			continue
		}
		seen[a.Name] = true
		if a.Merge == nil {
			cannot = append(cannot, a.Name)
			continue
		}
		a := a
		t.Run(a.Name, func(t *testing.T) {
			x, y := a.New(), a.New()
			state := uint64(13)
			for i := 0; i < 5000; i++ {
				x.AddHash(hashing.SplitMix64(&state))
			}
			for i := 0; i < 5000; i++ {
				y.AddHash(hashing.SplitMix64(&state))
			}
			if err := a.Merge(x, y); err != nil {
				t.Fatal(err)
			}
			est := x.Estimate()
			if relErr := math.Abs(est-10000) / 10000; relErr > 0.25 {
				t.Errorf("post-merge estimate %.0f, want ≈10000", est)
			}
		})
	}
	if want := []string{"HLL (8-bit, p=11, HIP)"}; !slices.Equal(cannot, want) {
		t.Errorf("algorithms without a merge = %q, want %q", cannot, want)
	}
}

func TestMergeRejectsForeignType(t *testing.T) {
	algos := Table2Algorithms()
	a := algos[0].New()
	b := algos[5].New()
	if err := algos[0].Merge(a, b); err == nil {
		t.Error("merge across algorithm types must fail")
	}
}

// TestTable2Shape runs a scaled-down Table 2 (smaller n, few runs) and
// checks the paper's qualitative ordering: ELL(2,20) has the best
// in-memory MVP, HLL 8-bit the worst, and the CPC-like sketch has the
// smallest serialized MVP.
func TestTable2Shape(t *testing.T) {
	rows := Table2(Table2Algorithms(), 100000, 60, 1)
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.RMSE <= 0 || math.IsNaN(r.RMSE) {
			t.Errorf("%s: bad RMSE %f", r.Name, r.RMSE)
		}
	}
	ell := byName["ELL (t=2, d=20, p=8)"]
	hll8 := byName["HLL (8-bit, p=11)"]
	hll6 := byName["HLL (6-bit, p=11)"]
	cpc := byName["CPC-like (compressed PCSA, p=10)"]

	if ell.MVPMemory >= hll6.MVPMemory {
		t.Errorf("ELL memory MVP %.2f not better than 6-bit HLL %.2f", ell.MVPMemory, hll6.MVPMemory)
	}
	if hll6.MVPMemory >= hll8.MVPMemory {
		t.Errorf("6-bit HLL MVP %.2f not better than 8-bit %.2f", hll6.MVPMemory, hll8.MVPMemory)
	}
	if cpc.MVPSerialized >= ell.MVPSerialized {
		t.Errorf("CPC-like serialized MVP %.2f should beat ELL %.2f", cpc.MVPSerialized, ell.MVPSerialized)
	}
	// CPC pays in memory: its in-memory MVP must be clearly above its
	// serialized MVP.
	if cpc.MVPMemory < cpc.MVPSerialized*1.5 {
		t.Errorf("CPC-like memory MVP %.2f vs serialized %.2f: expected large gap", cpc.MVPMemory, cpc.MVPSerialized)
	}
}

func TestFigure10Ns(t *testing.T) {
	ns := Figure10Ns()
	if ns[0] != 10 || ns[len(ns)-1] != 1000000 {
		t.Errorf("range %d..%d", ns[0], ns[len(ns)-1])
	}
	for i := 1; i < len(ns); i++ {
		if ns[i] <= ns[i-1] {
			t.Fatal("not increasing")
		}
	}
}

// TestFigure10SpikeArtifact reproduces the paper's headline criticism in
// miniature: the SpikeSketch-like MVP at n=10..20 is far above its
// mid-range value.
func TestFigure10SpikeArtifact(t *testing.T) {
	algos := []Algorithm{}
	for _, a := range Table2Algorithms() {
		if a.Name == "SpikeSketch-like (128 buckets)" {
			algos = append(algos, a)
		}
	}
	if len(algos) != 1 {
		t.Fatal("spike algorithm not found")
	}
	points := Figure10(algos, []int{10, 100000}, 60, 3)
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	small, large := points[0], points[1]
	if small.MVP < 2*large.MVP {
		t.Errorf("spike MVP at n=10 (%.1f) should far exceed mid-range (%.1f)", small.MVP, large.MVP)
	}
}

func TestFigure11SmokeTest(t *testing.T) {
	// One tiny timing pass over the first algorithm and the HIP row, which
	// cannot merge, to validate plumbing; the real run is ell-paper
	// figure11.
	var algos []Algorithm
	for i, a := range Figure11Algorithms() {
		if i == 0 || a.Name == "HLL (8-bit, p=11, HIP)" {
			algos = append(algos, a)
		}
	}
	res := Figure11(algos, []int{100}, 2, 5)
	if len(res) != 2 {
		t.Fatalf("got %d timing rows", len(res))
	}
	for _, r := range res {
		noMerge := r.Name == "HLL (8-bit, p=11, HIP)"
		for name, v := range map[string]float64{
			"insert": r.InsertNs, "estimate": r.EstimateNs,
			"serialize": r.SerializeNs, "merge": r.MergeNs,
			"merge+estimate": r.MergeAndEstimateNs,
		} {
			merging := name == "merge" || name == "merge+estimate"
			switch {
			case merging && noMerge:
				if !math.IsNaN(v) {
					t.Errorf("%s: %s timing %f, want NaN", r.Name, name, v)
				}
			case !(v > 0):
				t.Errorf("%s: %s timing %f not positive", r.Name, name, v)
			}
		}
	}
}
