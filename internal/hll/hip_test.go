package hll

import (
	"math"
	"testing"
)

func TestHIPBasics(t *testing.T) {
	h, err := NewHIP(10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Estimate() != 0 || h.mu != 1 {
		t.Fatal("fresh HIP sketch not pristine")
	}
	h.AddHash(12345)
	if got := h.Estimate(); got != 1 {
		t.Errorf("estimate after first insert = %g, want exactly 1", got)
	}
	if h.s.p != 10 {
		t.Errorf("precision %d", h.s.p)
	}
	if _, err := NewHIP(1); err == nil {
		t.Error("accepted p=1")
	}
}

func TestHIPAccuracy(t *testing.T) {
	h, _ := NewHIP(10)
	r := rng(61)
	const n = 100000
	for i := 0; i < n; i++ {
		h.AddHash(r.Uint64())
	}
	if relErr := math.Abs(h.Estimate()-n) / n; relErr > 0.12 {
		t.Errorf("HIP estimate %.0f (rel err %.3f)", h.Estimate(), relErr)
	}
	// ML on the same registers must also work.
	if relErr := math.Abs(estimateML(h.s.histogram(), h.s.p)-n) / n; relErr > 0.15 {
		t.Errorf("ML estimate %.0f", estimateML(h.s.histogram(), h.s.p))
	}
}

func TestHIPIdempotent(t *testing.T) {
	h, _ := NewHIP(8)
	r := rng(62)
	hashes := make([]uint64, 1000)
	for i := range hashes {
		hashes[i] = r.Uint64()
		h.AddHash(hashes[i])
	}
	before := h.Estimate()
	for _, v := range hashes {
		h.AddHash(v)
	}
	if h.Estimate() != before {
		t.Error("duplicates changed the HIP estimate")
	}
}

// TestHIPBeatsRawOnAverage: HIP's theoretical error is ≈ 0.836/√m vs the
// raw estimator's 1.04/√m; verify the ordering over repeated runs.
func TestHIPBeatsRawOnAverage(t *testing.T) {
	const runs = 60
	const n = 20000
	var seHIP, seRaw float64
	for run := 0; run < runs; run++ {
		h, _ := NewHIP(8)
		r := rng(int64(run)*997 + 13)
		for i := 0; i < n; i++ {
			h.AddHash(r.Uint64())
		}
		eh := h.Estimate()/n - 1
		er := h.Sketch().Estimate()/n - 1
		seHIP += eh * eh
		seRaw += er * er
	}
	if seHIP >= seRaw {
		t.Errorf("HIP mean squared error %.6f not below raw %.6f", seHIP/runs, seRaw/runs)
	}
}
