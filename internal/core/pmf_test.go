package core

import (
	"math"
	"testing"
)

// TestRegisterPMFSumsToOne: the PMF over all reachable register values
// must total 1 for various n (validates Section 3.1 against Algorithm 2's
// state space, including the always-set phantom bit).
func TestRegisterPMFSumsToOne(t *testing.T) {
	for _, cfg := range []Config{
		{T: 0, D: 0, P: 4},
		{T: 0, D: 2, P: 4},
		{T: 1, D: 3, P: 4},
		{T: 2, D: 6, P: 2},
	} {
		for _, n := range []float64{1, 10, 1000, 1e6, 1e12} {
			total := 0.0
			forEachRegisterValue(cfg, func(r uint64) { total += cfg.RegisterPMF(r, n) })
			if math.Abs(total-1) > 1e-9 {
				t.Errorf("cfg %+v n=%g: ΣPMF = %.12f, want 1", cfg, n, total)
			}
		}
	}
}

// TestRegisterPMFMatchesEmpirical compares the analytic PMF with observed
// register frequencies over many simulated sketches.
func TestRegisterPMFMatchesEmpirical(t *testing.T) {
	cfg := Config{T: 1, D: 2, P: 4}
	const n = 200
	const runs = 2000
	counts := map[uint64]int{}
	for run := 0; run < runs; run++ {
		s := MustNew(cfg)
		fillRandom(s, n, int64(run)*131+7)
		for i := 0; i < cfg.NumRegisters(); i++ {
			counts[s.Register(i)]++
		}
	}
	totalObs := float64(runs * cfg.NumRegisters())
	// Check all register values with expected probability > 1 %.
	checked := 0
	for r, c := range counts {
		pObs := float64(c) / totalObs
		pTheory := cfg.RegisterPMF(r, n)
		if pTheory < 0.01 {
			continue
		}
		checked++
		if math.Abs(pObs-pTheory)/pTheory > 0.1 {
			t.Errorf("register value %#x: observed %.4f, theory %.4f", r, pObs, pTheory)
		}
	}
	if checked < 5 {
		t.Errorf("only %d register values had non-negligible probability; test too weak", checked)
	}
	// Impossible states (phantom bit cleared) must never be observed and
	// must have zero probability.
	for r := range counts {
		if cfg.RegisterPMF(r, n) == 0 {
			t.Errorf("observed register value %#x has zero theoretical probability", r)
		}
	}
}

// TestRegisterEntropyProperties: entropy is positive once the sketch can
// be non-empty, bounded by the register width, and the dense encoding
// leaves compression headroom (the Section 6 observation).
func TestRegisterEntropyProperties(t *testing.T) {
	cfg := Config{T: 0, D: 2, P: 6} // ULL
	width := float64(cfg.RegisterWidth())
	for _, n := range []float64{100, 10000, 1e8} {
		h := cfg.RegisterEntropy(n)
		if h <= 0 || h >= width {
			t.Errorf("n=%g: entropy %.3f outside (0, %g)", n, h, width)
		}
	}
	// At n around m the entropy should be far below the 8 dense bits —
	// this is why ULL compresses well with standard algorithms.
	if h := cfg.RegisterEntropy(64); h > 6 {
		t.Errorf("entropy %.2f at n=m leaves too little headroom", h)
	}
}

// forEachRegisterValue calls f with every register value Algorithm 2 can
// reach: 0, and for each maximum update value u every combination of the
// free indicator bits u-1 .. max(1, u-d), with the phantom bit set.
func forEachRegisterValue(c Config, f func(r uint64)) {
	f(0)
	for u := int64(1); u <= int64(c.MaxUpdateValue()); u++ {
		nBits := min(int64(c.D), u-1)
		base := uint64(u) << uint(c.D)
		if u <= int64(c.D) {
			base |= uint64(1) << uint(int64(c.D)-u) // phantom bit
		}
		for mask := uint64(0); mask < uint64(1)<<uint(nBits); mask++ {
			f(base | mask<<uint(int64(c.D)-nBits))
		}
	}
}

// enumeratedEntropy is the reference for RegisterEntropy: it sums
// -p·log₂p over every reachable register value, each p from RegisterPMF,
// and normalizes by the total mass. It is exponential in d.
func enumeratedEntropy(c Config, n float64) float64 {
	h, total := 0.0, 0.0
	forEachRegisterValue(c, func(r uint64) {
		p := c.RegisterPMF(r, n)
		total += p
		if p > 0 {
			h -= p * math.Log2(p)
		}
	})
	return h / total
}

// TestRegisterEntropyMatchesEnumeration: the closed form equals the sum
// over every register value of the Section 3.1 PMF.
func TestRegisterEntropyMatchesEnumeration(t *testing.T) {
	for _, cfg := range []Config{
		{T: 0, D: 0, P: 4},  // HLL
		{T: 0, D: 2, P: 10}, // ULL
		{T: 1, D: 3, P: 6},
		{T: 1, D: 9, P: 10},
		{T: 2, D: 6, P: 2},
		{T: 2, D: 8, P: 8},
	} {
		for _, n := range []float64{0, 1, 100, 1e4, 1e6, 1e12} {
			got, want := cfg.RegisterEntropy(n), enumeratedEntropy(cfg, n)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("cfg %+v n=%g: closed form %.12f, enumeration %.12f", cfg, n, got, want)
			}
		}
	}
}

// TestRegisterEntropyLargeD: the closed form serves the d the enumeration
// could not (d = 20, 24), and the result stays inside (0, register width).
func TestRegisterEntropyLargeD(t *testing.T) {
	for _, cfg := range []Config{{T: 2, D: 20, P: 10}, {T: 2, D: 24, P: 8}} {
		for _, n := range []float64{100, 1e6, 1e18} {
			h := cfg.RegisterEntropy(n)
			if !(h > 0 && h < float64(cfg.RegisterWidth())) {
				t.Errorf("cfg %+v n=%g: entropy %v outside (0, %d)", cfg, n, h, cfg.RegisterWidth())
			}
		}
	}
}
