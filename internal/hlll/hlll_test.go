package hlll

import (
	"math"
	"math/rand"
	"testing"

	"exaloglog/internal/hll"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestRegistersMatchPlainHLL(t *testing.T) {
	// The compressed representation must be lossless for the maximum
	// values: absolute register values equal a plain HLL's at all times
	// (hll's TestVariantsSeeSameRegisters holds Dense4's to Dense8's).
	s, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := hll.NewDense4(8)
	r := rng(1)
	for i := 0; i < 50000; i++ {
		h := r.Uint64()
		s.AddHash(h)
		ref.AddHash(h)
		if i%4999 == 0 {
			for j := 0; j < s.NumRegisters(); j++ {
				if s.Register(j) != ref.Register(j) {
					t.Fatalf("after %d inserts, register %d: hlll=%d hll=%d (base=%d)",
						i+1, j, s.Register(j), ref.Register(j), s.base)
				}
			}
		}
	}
	if s.base == 0 {
		t.Error("base never advanced at n >> m")
	}
	if s.rebases == 0 {
		t.Error("no rebase sweeps recorded")
	}
}

func TestEstimateAccuracy(t *testing.T) {
	for _, n := range []int{1000, 100000} {
		s, _ := New(10)
		r := rng(int64(n))
		for i := 0; i < n; i++ {
			s.AddHash(r.Uint64())
		}
		got := s.Estimate()
		if relErr := math.Abs(got-float64(n)) / float64(n); relErr > 0.17 {
			t.Errorf("n=%d: estimate %.1f (rel err %.3f)", n, got, relErr)
		}
	}
}

func TestSizeSavingsVsHLL6(t *testing.T) {
	// The selling point: ~40 % less space than 6-bit HLL once filled.
	s, _ := New(11)
	h6, _ := hll.NewDense6(11)
	r := rng(3)
	for i := 0; i < 1000000/2; i++ {
		h := r.Uint64()
		s.AddHash(h)
		h6.AddHash(h)
	}
	// The compressed register array plus 5-byte exception entries.
	size := s.regs.SizeBytes() + 5*len(s.exc)
	ratio := float64(size) / float64(h6.SizeBytes())
	if ratio > 0.75 {
		t.Errorf("HLLL size ratio vs 6-bit HLL = %.2f; want < 0.75", ratio)
	}
}

func TestMergeEqualsUnifiedStream(t *testing.T) {
	r := rng(5)
	a, _ := New(7)
	b, _ := New(7)
	u, _ := New(7)
	for i := 0; i < 5000; i++ {
		h := r.Uint64()
		a.AddHash(h)
		u.AddHash(h)
	}
	for i := 0; i < 8000; i++ {
		h := r.Uint64()
		b.AddHash(h)
		u.AddHash(h)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumRegisters(); i++ {
		if a.Register(i) != u.Register(i) {
			t.Fatalf("register %d: merged %d, unified %d", i, a.Register(i), u.Register(i))
		}
	}
	c, _ := New(8)
	if err := a.Merge(c); err == nil {
		t.Error("merge accepted different p")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	s, _ := New(6)
	r := rng(7)
	for i := 0; i < 20000; i++ {
		s.AddHash(r.Uint64())
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Sketch
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumRegisters(); i++ {
		if restored.Register(i) != s.Register(i) {
			t.Fatalf("register %d lost in round trip", i)
		}
	}
	if err := new(Sketch).UnmarshalBinary([]byte{6}); err == nil {
		t.Error("accepted truncated data")
	}
	if err := new(Sketch).UnmarshalBinary([]byte{40, 0, 0}); err == nil {
		t.Error("accepted bad precision")
	}
}

func TestIdempotent(t *testing.T) {
	s, _ := New(6)
	r := rng(9)
	hashes := make([]uint64, 1000)
	for i := range hashes {
		hashes[i] = r.Uint64()
		s.AddHash(hashes[i])
	}
	before := make([]uint8, s.NumRegisters())
	for i := range before {
		before[i] = s.Register(i)
	}
	for _, h := range hashes {
		s.AddHash(h)
	}
	for i := range before {
		if s.Register(i) != before[i] {
			t.Fatalf("duplicate insertion changed register %d", i)
		}
	}
}
