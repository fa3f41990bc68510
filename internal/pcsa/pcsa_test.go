package pcsa

import (
	"math"
	"math/rand"
	"testing"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func fill(s *Sketch, n int, seed int64) {
	r := rng(seed)
	for i := 0; i < n; i++ {
		s.AddHash(r.Uint64())
	}
}

// estimateML is the ML estimate of a plain sketch's bitmaps, the one
// Windowed.EstimateML gives.
func estimateML(s *Sketch) float64 {
	return estimateBitmapsML(s.p, len(s.maps), func(i int) uint64 { return s.maps[i] })
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("accepted p=1")
	}
	if _, err := New(21); err == nil {
		t.Error("accepted p=21")
	}
	s, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.maps) != 256 {
		t.Errorf("m=%d, want 256", len(s.maps))
	}
}

func TestAddSetsExpectedBit(t *testing.T) {
	s, _ := New(4)
	// Hash with top 4 bits = 0101 (register 5) and the next bit set:
	// nlz(masked) = 4 → k = 1 → bit 0.
	h := uint64(0x5)<<60 | uint64(1)<<59
	s.AddHash(h)
	if s.maps[5] != 1 {
		t.Errorf("bitmap(5) = %b, want 1", s.maps[5])
	}
	// Same register, two levels deeper: k = 3 → bit 2.
	h = uint64(0x5)<<60 | uint64(1)<<57
	s.AddHash(h)
	if s.maps[5] != 0b101 {
		t.Errorf("bitmap(5) = %b, want 101", s.maps[5])
	}
}

// TestIdempotentCommutativeMerge: repeated and reordered inserts give the
// same bitmaps. Windowed.Merge, the union the comparison runs, is
// TestWindowedMergeEqualsUnified.
func TestIdempotentCommutativeMerge(t *testing.T) {
	r := rng(3)
	hashes := make([]uint64, 1000)
	for i := range hashes {
		hashes[i] = r.Uint64()
	}
	a, _ := New(6)
	for _, h := range hashes {
		a.AddHash(h)
		a.AddHash(h)
	}
	b, _ := New(6)
	r.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
	for _, h := range hashes {
		b.AddHash(h)
	}
	for i := 0; i < len(a.maps); i++ {
		if a.maps[i] != b.maps[i] {
			t.Fatalf("register %d differs", i)
		}
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// PCSA ML error ≈ sqrt(ln2 / (2... use a generous 5σ bound of ~10 %
	// at p=8 for ML and a looser one for the classic FM estimator.
	for _, n := range []int{500, 5000, 100000} {
		s, _ := New(8)
		fill(s, n, int64(n))
		ml := estimateML(s)
		if relErr := math.Abs(ml-float64(n)) / float64(n); relErr > 0.12 {
			t.Errorf("n=%d: ML estimate %.1f (rel err %.3f)", n, ml, relErr)
		}
	}
	// The FM estimator needs n >> m to be in its asymptotic regime.
	s, _ := New(6)
	const n = 200000
	fill(s, n, 99)
	fm := s.EstimateFM()
	if relErr := math.Abs(fm-float64(n)) / float64(n); relErr > 0.25 {
		t.Errorf("FM estimate %.1f (rel err %.3f)", fm, relErr)
	}
}

func TestEstimateEmpty(t *testing.T) {
	s, _ := New(6)
	if got := estimateML(s); got != 0 {
		t.Errorf("empty ML estimate = %g, want 0", got)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	s, _ := New(7)
	fill(s, 3000, 5)
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var r1 Sketch
	if err := r1.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	comp, err := s.MarshalCompressed()
	if err != nil {
		t.Fatal(err)
	}
	var r2 Sketch
	if err := r2.UnmarshalCompressed(comp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(s.maps); i++ {
		if r1.maps[i] != s.maps[i] {
			t.Fatalf("raw round trip lost register %d", i)
		}
		if r2.maps[i] != s.maps[i] {
			t.Fatalf("compressed round trip lost register %d", i)
		}
	}
	if err := new(Sketch).UnmarshalBinary([]byte{7, 1, 2}); err == nil {
		t.Error("accepted truncated raw payload")
	}
}

func TestCompressedSmallerThanRaw(t *testing.T) {
	// The whole point of the CPC-like path: at n ≈ 8m the compressed form
	// must be much smaller than the 8-bytes-per-register raw form, and in
	// the ballpark of the CPC MVP (~2.3 → ~0.3-0.5 bytes/register... we
	// just require at least a 4x reduction).
	s, _ := New(10)
	fill(s, 8*1024, 13)
	raw, _ := s.MarshalBinary()
	comp, _ := s.MarshalCompressed()
	if len(comp)*4 > len(raw) {
		t.Errorf("compressed %d bytes vs raw %d: less than 4x reduction", len(comp), len(raw))
	}
}

func TestCompressedSizeGrowsWithN(t *testing.T) {
	sizes := []int{}
	for _, n := range []int{100, 1000, 10000} {
		s, _ := New(10)
		fill(s, n, int64(n)+77)
		comp, _ := s.MarshalCompressed()
		sizes = append(sizes, len(comp))
	}
	if !(sizes[0] < sizes[1] && sizes[1] < sizes[2]) {
		t.Errorf("compressed sizes %v not increasing with n", sizes)
	}
}

func TestMLBetterThanFM(t *testing.T) {
	const runs = 30
	const n = 30000
	var seFM, seML float64
	for run := 0; run < runs; run++ {
		s, _ := New(6)
		fill(s, n, int64(run)*911+3)
		ef := s.EstimateFM()/n - 1
		em := estimateML(s)/n - 1
		seFM += ef * ef
		seML += em * em
	}
	if seML > seFM {
		t.Errorf("ML squared error %.6f worse than FM %.6f", seML/runs, seFM/runs)
	}
}
