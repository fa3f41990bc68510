package pcsa

import (
	"math"
	"testing"
)

// TestWindowedMatchesRaw: the windowed representation must be a lossless
// re-encoding — reconstructed bitmaps always equal the raw sketch's.
func TestWindowedMatchesRaw(t *testing.T) {
	w, err := NewWindowed(8)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := New(8)
	r := rng(1)
	for i := 0; i < 300000; i++ {
		h := r.Uint64()
		w.AddHash(h)
		raw.AddHash(h)
		if i%29989 == 0 {
			for j := 0; j < len(raw.maps); j++ {
				if w.Bitmap(j) != raw.maps[j] {
					t.Fatalf("after %d inserts, register %d: windowed %#x raw %#x (offset=%d)",
						i+1, j, w.Bitmap(j), raw.maps[j], w.offset)
				}
			}
		}
	}
	if w.offset == 0 {
		t.Error("offset never advanced at n >> m")
	}
	// Estimates must agree exactly (same bitmaps, same estimator).
	if w.EstimateML() != estimateML(raw) {
		t.Error("windowed and raw ML estimates differ")
	}
}

func TestWindowedCompact(t *testing.T) {
	// The point of the windowed form: at n >> m it must be much smaller
	// in memory than the 8-bytes-per-register raw form, with few
	// exceptions.
	w, _ := NewWindowed(10)
	raw, _ := New(10)
	r := rng(3)
	for i := 0; i < 1000000; i++ {
		h := r.Uint64()
		w.AddHash(h)
		raw.AddHash(h)
	}
	if rawBytes := 8 * len(raw.maps); w.MemoryFootprint()*2 > rawBytes {
		t.Errorf("windowed footprint %d not well below the raw bitmaps' %d", w.MemoryFootprint(), rawBytes)
	}
	if len(w.exc) > len(w.win)/16 {
		t.Errorf("too many exceptions: %d of %d registers", len(w.exc), len(w.win))
	}
}

func TestWindowedMergeEqualsUnified(t *testing.T) {
	r := rng(5)
	a, _ := NewWindowed(7)
	b, _ := NewWindowed(7)
	u, _ := NewWindowed(7)
	for i := 0; i < 40000; i++ {
		h := r.Uint64()
		a.AddHash(h)
		u.AddHash(h)
	}
	for i := 0; i < 60000; i++ {
		h := r.Uint64()
		b.AddHash(h)
		u.AddHash(h)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(a.win); i++ {
		if a.Bitmap(i) != u.Bitmap(i) {
			t.Fatalf("register %d: merged %#x, unified %#x", i, a.Bitmap(i), u.Bitmap(i))
		}
	}
	c, _ := NewWindowed(8)
	if err := a.Merge(c); err == nil {
		t.Error("merge accepted different p")
	}
}

func TestWindowedEstimateAccuracy(t *testing.T) {
	for _, n := range []int{1000, 100000} {
		w, _ := NewWindowed(8)
		r := rng(int64(n))
		for i := 0; i < n; i++ {
			w.AddHash(r.Uint64())
		}
		got := w.EstimateML()
		if relErr := math.Abs(got-float64(n)) / float64(n); relErr > 0.12 {
			t.Errorf("n=%d: estimate %.1f (rel err %.3f)", n, got, relErr)
		}
	}
}

func TestWindowedSerializationRoundTrips(t *testing.T) {
	w, _ := NewWindowed(6)
	r := rng(9)
	for i := 0; i < 50000; i++ {
		w.AddHash(r.Uint64())
	}
	// Fast windowed serialization.
	data, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w2 Windowed
	if err := w2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// Compressed (CPC-like) serialization.
	comp, err := w.MarshalCompressed()
	if err != nil {
		t.Fatal(err)
	}
	var w3 Sketch
	if err := w3.UnmarshalCompressed(comp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(w.win); i++ {
		if w2.Bitmap(i) != w.Bitmap(i) {
			t.Fatalf("fast round trip lost register %d", i)
		}
		if w3.maps[i] != w.Bitmap(i) {
			t.Fatalf("compressed round trip lost register %d", i)
		}
	}
	// Compressed must be much smaller than the raw bitmaps (the p=6
	// sketch has little data for the adaptive coder to train on, so the
	// reduction is smaller than the 4x seen at p=10 in pcsa_test.go).
	if len(comp)*2 > 8*len(w.win) {
		t.Errorf("compressed %d bytes vs %d raw", len(comp), 8*len(w.win))
	}
	if err := new(Windowed).UnmarshalBinary([]byte{6}); err == nil {
		t.Error("accepted truncated data")
	}
}

func TestWindowedValidation(t *testing.T) {
	if _, err := NewWindowed(1); err == nil {
		t.Error("accepted p=1")
	}
	if _, err := NewWindowed(21); err == nil {
		t.Error("accepted p=21")
	}
}
