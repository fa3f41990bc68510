package similarity

import (
	"math"
	"testing"

	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
)

// buildPair returns sketches over [0, na) and [na-overlap, na-overlap+nb).
func buildPair(t *testing.T, p, na, nb, overlap int) (*core.Sketch, *core.Sketch) {
	t.Helper()
	a := core.MustNew(core.RecommendedML(p))
	b := core.MustNew(core.RecommendedML(p))
	for i := 0; i < na; i++ {
		a.AddUint64(uint64(i))
	}
	start := na - overlap
	for i := start; i < start+nb; i++ {
		b.AddUint64(uint64(i))
	}
	return a, b
}

func TestAnalyzeKnownOverlap(t *testing.T) {
	const na, nb, overlap = 40000, 30000, 10000
	a, b := buildPair(t, 12, na, nb, overlap)
	e, err := Analyze(a, b)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		got  float64
		want float64
		tol  float64 // relative
	}{
		{"CountA", e.CountA, na, 0.03},
		{"CountB", e.CountB, nb, 0.03},
		{"Union", e.Union, na + nb - overlap, 0.03},
		{"Intersection", e.Intersection, overlap, 0.25},
		{"Jaccard", e.Jaccard, float64(overlap) / float64(na+nb-overlap), 0.25},
		{"ContainmentAinB", e.ContainmentAinB, float64(overlap) / na, 0.25},
		{"ContainmentBinA", e.ContainmentBinA, float64(overlap) / nb, 0.25},
	}
	for _, c := range checks {
		if rel := math.Abs(c.got-c.want) / c.want; rel > c.tol {
			t.Errorf("%s = %.4g, want %.4g (err %.1f%%)", c.name, c.got, c.want, 100*rel)
		}
	}
	if e.Sigma <= 0 || e.JaccardError() <= 0 {
		t.Errorf("error guidance not populated: %+v", e)
	}
}

func TestIdenticalSets(t *testing.T) {
	a, _ := buildPair(t, 11, 20000, 1, 0)
	e, err := Analyze(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Jaccard-1) > 1e-9 {
		t.Errorf("Jaccard of identical sketches = %g, want exactly 1", e.Jaccard)
	}
	if e.ContainmentAinB != 1 || e.ContainmentBinA != 1 {
		t.Errorf("containment of identical sketches = %g/%g", e.ContainmentAinB, e.ContainmentBinA)
	}
}

func TestDisjointSets(t *testing.T) {
	a, b := buildPair(t, 12, 20000, 20000, 0)
	e, err := Analyze(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// True Jaccard 0; estimate noise is bounded by a few σ.
	if e.Jaccard > 4*e.Sigma {
		t.Errorf("disjoint Jaccard = %g, beyond noise band %g", e.Jaccard, 4*e.Sigma)
	}
}

func TestEmptyAndNil(t *testing.T) {
	a := core.MustNew(core.RecommendedML(8))
	b := core.MustNew(core.RecommendedML(8))
	e, err := Analyze(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if e.Union != 0 || e.Jaccard != 0 || e.Intersection != 0 {
		t.Errorf("empty analysis %+v", e)
	}
	if _, err := Analyze(nil, b); err == nil {
		t.Error("nil sketch accepted")
	}
	if _, err := Analyze(a, nil); err == nil {
		t.Error("nil sketch accepted")
	}
}

func TestMixedParameters(t *testing.T) {
	// Same t, different d and p: must align by reduction.
	a := core.MustNew(core.Config{T: 2, D: 24, P: 12})
	b := core.MustNew(core.Config{T: 2, D: 20, P: 10})
	for i := 0; i < 10000; i++ {
		a.AddUint64(uint64(i))
		b.AddUint64(uint64(i + 5000))
	}
	e, err := Analyze(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(e.Union-15000) / 15000; rel > 0.08 {
		t.Errorf("mixed-parameter union %.0f, want ≈15000", e.Union)
	}
	// Different t cannot be combined.
	c := core.MustNew(core.Config{T: 0, D: 2, P: 10})
	c.AddUint64(1)
	if _, err := Analyze(a, c); err == nil {
		t.Error("different t accepted")
	}
}

func TestClamping(t *testing.T) {
	// With tiny sketches the raw inclusion–exclusion can go negative or
	// exceed min(|A|,|B|); outputs must stay in their domains.
	state := uint64(9)
	for trial := 0; trial < 50; trial++ {
		a := core.MustNew(core.RecommendedML(4))
		b := core.MustNew(core.RecommendedML(4))
		for i := 0; i < 200; i++ {
			a.AddHash(hashing.SplitMix64(&state))
			b.AddHash(hashing.SplitMix64(&state))
		}
		e, err := Analyze(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if e.Intersection < 0 || e.Intersection > math.Min(e.CountA, e.CountB)+1e-9 {
			t.Fatalf("intersection %g outside [0, min]", e.Intersection)
		}
		if e.Jaccard < 0 || e.Jaccard > 1 {
			t.Fatalf("Jaccard %g outside [0, 1]", e.Jaccard)
		}
		if e.ContainmentAinB < 0 || e.ContainmentAinB > 1 || e.ContainmentBinA < 0 || e.ContainmentBinA > 1 {
			t.Fatalf("containment outside [0, 1]: %+v", e)
		}
	}
}
