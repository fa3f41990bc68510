package hll

import (
	"math"
	"math/rand"
	"testing"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSplitHash(t *testing.T) {
	// Algorithm 1: index from the top p bits, update value
	// nlz(masked) - p + 1.
	idx, k := splitHash(0, 10)
	if idx != 0 {
		t.Errorf("idx = %d, want 0", idx)
	}
	if k != 65-10 {
		t.Errorf("k = %d, want %d (all-zero hash saturates)", k, 65-10)
	}
	idx, k = splitHash(^uint64(0), 10)
	if idx != 1023 {
		t.Errorf("idx = %d, want 1023", idx)
	}
	if k != 1 {
		t.Errorf("k = %d, want 1", k)
	}
	// A hash with the bit right below the index set: k = 1.
	_, k = splitHash(uint64(1)<<53, 10)
	if k != 1 {
		t.Errorf("k = %d, want 1", k)
	}
	// One level deeper: k = 2.
	_, k = splitHash(uint64(1)<<52, 10)
	if k != 2 {
		t.Errorf("k = %d, want 2", k)
	}
}

func TestDense6Basics(t *testing.T) {
	s, err := NewDense6(10)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRegisters() != 1024 || s.SizeBytes() != 768 {
		t.Errorf("m=%d size=%d, want 1024 and 768", s.NumRegisters(), s.SizeBytes())
	}
	// p=11 → 1536 bytes, matching Table 2's 6-bit HLL serialized size
	// (DataSketches reports 1577 with header overhead).
	s11, _ := NewDense6(11)
	if s11.SizeBytes() != 1536 {
		t.Errorf("p=11 size = %d, want 1536", s11.SizeBytes())
	}
	if _, err := NewDense6(1); err == nil {
		t.Error("accepted p=1")
	}
}

func TestEstimateAccuracyAllVariants(t *testing.T) {
	// All three layouts must agree with the true count within ~5σ
	// (σ = 1.04/√m ≈ 3.3 % at p=10).
	for _, n := range []int{100, 1000, 50000} {
		r6, _ := NewDense6(10)
		r8, _ := NewDense8(10)
		r4, _ := NewDense4(10)
		r := rng(int64(n))
		for i := 0; i < n; i++ {
			h := r.Uint64()
			r6.AddHash(h)
			r8.AddHash(h)
			r4.AddHash(h)
		}
		for name, est := range map[string]float64{
			"dense6":    r6.Estimate(),
			"dense8":    r8.Estimate(),
			"dense4":    r4.Estimate(),
			"dense6-ML": r6.EstimateML(),
			"dense8-ML": estimateML(r8.histogram(), r8.p),
			"dense4-ML": estimateML(r4.histogram(), r4.p),
		} {
			if relErr := math.Abs(est-float64(n)) / float64(n); relErr > 0.17 {
				t.Errorf("%s at n=%d: estimate %.1f (rel err %.3f)", name, n, est, relErr)
			}
		}
	}
}

func TestVariantsSeeSameRegisters(t *testing.T) {
	// Feeding identical hashes, the absolute register values of all three
	// layouts must agree everywhere.
	r6, _ := NewDense6(8)
	r8, _ := NewDense8(8)
	r4, _ := NewDense4(8)
	r := rng(7)
	for i := 0; i < 20000; i++ {
		h := r.Uint64()
		r6.AddHash(h)
		r8.AddHash(h)
		r4.AddHash(h)
	}
	for i := 0; i < r6.NumRegisters(); i++ {
		v6 := uint8(r6.regs.Get(i))
		v8 := r8.regs[i]
		v4 := r4.Register(i)
		if v6 != v8 || v6 != v4 {
			t.Fatalf("register %d: dense6=%d dense8=%d dense4=%d", i, v6, v8, v4)
		}
	}
	// With n >> m the 4-bit variant must have advanced its offset.
	if r4.offset == 0 {
		t.Error("dense4 offset never advanced at n >> m")
	}
}

func TestDense4OffsetAdvanceKeepsValues(t *testing.T) {
	s, _ := NewDense4(4)
	ref, _ := NewDense8(4)
	r := rng(9)
	for i := 0; i < 100000; i++ {
		h := r.Uint64()
		s.AddHash(h)
		ref.AddHash(h)
		if i%9973 == 0 {
			for j := 0; j < s.NumRegisters(); j++ {
				if s.Register(j) != ref.regs[j] {
					t.Fatalf("after %d inserts register %d: dense4=%d ref=%d (offset=%d)",
						i+1, j, s.Register(j), ref.regs[j], s.offset)
				}
			}
		}
	}
}

func TestIdempotentAndCommutative(t *testing.T) {
	r := rng(11)
	hashes := make([]uint64, 500)
	for i := range hashes {
		hashes[i] = r.Uint64()
	}
	a, _ := NewDense6(8)
	for _, h := range hashes {
		a.AddHash(h)
	}
	b, _ := NewDense6(8)
	r.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
	for _, h := range hashes {
		b.AddHash(h)
		b.AddHash(h) // duplicates
	}
	for i := 0; i < a.NumRegisters(); i++ {
		if uint8(a.regs.Get(i)) != uint8(b.regs.Get(i)) {
			t.Fatalf("register %d differs after shuffle+duplicates", i)
		}
	}
}

func TestMergeEqualsUnifiedStream(t *testing.T) {
	r := rng(13)
	a6, _ := NewDense6(8)
	b6, _ := NewDense6(8)
	u6, _ := NewDense6(8)
	a4, _ := NewDense4(8)
	b4, _ := NewDense4(8)
	u4, _ := NewDense4(8)
	for i := 0; i < 3000; i++ {
		h := r.Uint64()
		a6.AddHash(h)
		u6.AddHash(h)
		a4.AddHash(h)
		u4.AddHash(h)
	}
	for i := 0; i < 4000; i++ {
		h := r.Uint64()
		b6.AddHash(h)
		u6.AddHash(h)
		b4.AddHash(h)
		u4.AddHash(h)
	}
	if err := a6.Merge(b6); err != nil {
		t.Fatal(err)
	}
	if err := a4.Merge(b4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a6.NumRegisters(); i++ {
		if uint8(a6.regs.Get(i)) != uint8(u6.regs.Get(i)) {
			t.Fatalf("dense6 register %d: merged %d, unified %d", i, uint8(a6.regs.Get(i)), uint8(u6.regs.Get(i)))
		}
		if a4.Register(i) != u4.Register(i) {
			t.Fatalf("dense4 register %d: merged %d, unified %d", i, a4.Register(i), u4.Register(i))
		}
	}
	other, _ := NewDense6(9)
	if err := a6.Merge(other); err == nil {
		t.Error("merge accepted different p")
	}
}

func TestSerializationRoundTrips(t *testing.T) {
	r := rng(17)
	s6, _ := NewDense6(7)
	s8, _ := NewDense8(7)
	s4, _ := NewDense4(7)
	for i := 0; i < 5000; i++ {
		h := r.Uint64()
		s6.AddHash(h)
		s8.AddHash(h)
		s4.AddHash(h)
	}
	d6, _ := s6.MarshalBinary()
	var t6 Dense6
	if err := t6.UnmarshalBinary(d6); err != nil {
		t.Fatal(err)
	}
	d8, _ := s8.MarshalBinary()
	var t8 Dense8
	if err := t8.UnmarshalBinary(d8); err != nil {
		t.Fatal(err)
	}
	d4, _ := s4.MarshalBinary()
	var t4 Dense4
	if err := t4.UnmarshalBinary(d4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s6.NumRegisters(); i++ {
		if uint8(t6.regs.Get(i)) != uint8(s6.regs.Get(i)) || t8.regs[i] != s8.regs[i] || t4.Register(i) != s4.Register(i) {
			t.Fatalf("register %d lost in round trip", i)
		}
	}
	// Corrupt data must be rejected.
	if err := new(Dense6).UnmarshalBinary(nil); err == nil {
		t.Error("dense6 accepted empty data")
	}
	if err := new(Dense4).UnmarshalBinary([]byte{30, 0}); err == nil {
		t.Error("dense4 accepted bad precision")
	}
}

func TestLinearCountingSmallRange(t *testing.T) {
	// With n << m the raw estimator must hand over to linear counting and
	// be nearly exact.
	s, _ := NewDense6(12)
	r := rng(19)
	for i := 0; i < 10; i++ {
		s.AddHash(r.Uint64())
	}
	if got := s.Estimate(); math.Abs(got-10) > 1 {
		t.Errorf("small-range estimate %.2f, want ≈10", got)
	}
}

func TestMLMoreAccurateThanRawOnAverage(t *testing.T) {
	// Aggregate squared errors over repeated runs; Ertl's ML estimator
	// should not be worse than the corrected raw estimator.
	const runs = 40
	const n = 5000
	var seRaw, seML float64
	for run := 0; run < runs; run++ {
		s, _ := NewDense6(8)
		r := rng(int64(run)*31 + 5)
		for i := 0; i < n; i++ {
			s.AddHash(r.Uint64())
		}
		er := s.Estimate()/n - 1
		em := s.EstimateML()/n - 1
		seRaw += er * er
		seML += em * em
	}
	if seML > seRaw*1.15 {
		t.Errorf("ML mean squared error %.6f vs raw %.6f; ML should not be worse", seML/runs, seRaw/runs)
	}
}

// dense4Size is a Dense4's nibble array plus its exception entries, each
// a 4-byte key and a 1-byte value.
func dense4Size(s *Dense4) int { return len(s.nibbles) + 5*len(s.exceptions) }

func TestDense4SizeSmallerThanDense6(t *testing.T) {
	s4, _ := NewDense4(11)
	s6, _ := NewDense6(11)
	r := rng(23)
	for i := 0; i < 1000000/10; i++ {
		h := r.Uint64()
		s4.AddHash(h)
		s6.AddHash(h)
	}
	if dense4Size(s4) >= s6.SizeBytes() {
		t.Errorf("dense4 size %d not below dense6 %d", dense4Size(s4), s6.SizeBytes())
	}
}
