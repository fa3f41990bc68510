package bitpack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	for _, w := range []uint{1, 3, 5, 8, 13, 16, 24, 28, 32, 48, 57} {
		a := New(100, w)
		for i := 0; i < a.Len(); i++ {
			if got := a.Get(i); got != 0 {
				t.Fatalf("width %d: fresh array field %d = %d, want 0", w, i, got)
			}
		}
	}
}

func TestSizeBytes(t *testing.T) {
	cases := []struct {
		n    int
		w    uint
		want int
	}{
		{0, 8, 0},
		{1, 8, 1},
		{4, 14, 7},      // paper Figure 3: p=2, t=2, d=6 → 4 registers × 14 bits = 7 bytes
		{256, 28, 896},  // ELL(2,20) p=8 → 896 bytes, Table 2
		{256, 32, 1024}, // ELL(2,24) p=8 → 1024 bytes, Table 2
		{2048, 6, 1536}, // HLL 6-bit p=11 → 1536 bytes
		{3, 3, 2},
	}
	for _, c := range cases {
		if got := New(c.n, c.w).SizeBytes(); got != c.want {
			t.Errorf("SizeBytes(n=%d, w=%d) = %d, want %d", c.n, c.w, got, c.want)
		}
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, w := range []uint{1, 2, 3, 5, 7, 8, 9, 14, 15, 16, 17, 23, 24, 25, 28, 31, 32, 33, 40, 48, 57} {
		n := 257
		a := New(n, w)
		ref := make([]uint64, n)
		mask := uint64(1)<<w - 1
		for iter := 0; iter < 4*n; iter++ {
			i := rng.Intn(n)
			v := rng.Uint64() & mask
			a.Set(i, v)
			ref[i] = v
			// Verify the write landed and did not clobber neighbours.
			for _, j := range []int{i - 1, i, i + 1} {
				if j < 0 || j >= n {
					continue
				}
				if got := a.Get(j); got != ref[j] {
					t.Fatalf("width %d: after Set(%d,%#x), Get(%d) = %#x, want %#x", w, i, v, j, got, ref[j])
				}
			}
		}
		for i := range ref {
			if got := a.Get(i); got != ref[i] {
				t.Fatalf("width %d: final Get(%d) = %#x, want %#x", w, i, got, ref[i])
			}
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []uint{3, 6, 14, 16, 24, 28, 32} {
		a := New(100, w)
		mask := uint64(1)<<w - 1
		for i := 0; i < a.Len(); i++ {
			a.Set(i, rng.Uint64()&mask)
		}
		b, err := FromBytes(append([]byte(nil), a.Bytes()...), a.Len(), w)
		if err != nil {
			t.Fatalf("width %d: FromBytes: %v", w, err)
		}
		for i := 0; i < a.Len(); i++ {
			if a.Get(i) != b.Get(i) {
				t.Fatalf("width %d: round-trip mismatch at %d", w, i)
			}
		}
	}
}

func TestFromBytesLengthMismatch(t *testing.T) {
	if _, err := FromBytes(make([]byte, 5), 10, 6); err == nil {
		t.Fatal("FromBytes accepted a short buffer")
	}
	if _, err := FromBytes(make([]byte, 9), 10, 6); err == nil {
		t.Fatal("FromBytes accepted a long buffer")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(10, 28)
	a.Set(3, 12345)
	c := a.Clone()
	c.Set(3, 54321)
	if a.Get(3) != 12345 {
		t.Fatalf("mutating clone changed original: %d", a.Get(3))
	}
	if c.Get(3) != 54321 {
		t.Fatalf("clone write lost: %d", c.Get(3))
	}
}

func TestReset(t *testing.T) {
	a := New(64, 14)
	for i := 0; i < a.Len(); i++ {
		a.Set(i, uint64(i))
	}
	a.Reset()
	for i := 0; i < a.Len(); i++ {
		if a.Get(i) != 0 {
			t.Fatalf("Reset left field %d = %d", i, a.Get(i))
		}
	}
}

func TestSetPanicsOnOversizedValue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set accepted a value wider than the field")
		}
	}()
	New(4, 6).Set(0, 64)
}

func TestGetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get accepted an out-of-range index")
		}
	}()
	New(4, 6).Get(4)
}

func TestQuickSetGet(t *testing.T) {
	// Property: for any width and any value masked to that width, a
	// Set/Get pair is the identity and leaves all other fields intact.
	f := func(widthSeed uint8, idxSeed uint16, v uint64) bool {
		w := uint(widthSeed)%MaxWidth + 1
		n := 33
		i := int(idxSeed) % n
		a := New(n, w)
		v &= uint64(1)<<w - 1
		a.Set(i, v)
		if a.Get(i) != v {
			return false
		}
		for j := 0; j < n; j++ {
			if j != i && a.Get(j) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultBackingHasNoPadding pins the allocation of the store's default
// register array, 4096 × 28 bits: exactly 14 336 bytes, which is an
// allocator size class. Seven bytes of load padding used to push it into the
// 16 384-byte class — 2 KB wasted per dense key and per window slice.
func TestDefaultBackingHasNoPadding(t *testing.T) {
	a := New(4096, 28)
	if got := cap(a.bits); got != 14336 {
		t.Fatalf("backing capacity %d bytes, want 14336", got)
	}
	// The last fields are read and written through the tail path.
	for _, i := range []int{4093, 4094, 4095} {
		a.Set(i, uint64(1)<<28-1-uint64(i))
	}
	for _, i := range []int{4093, 4094, 4095} {
		if got, want := a.Get(i), uint64(1)<<28-1-uint64(i); got != want {
			t.Fatalf("field %d = %#x, want %#x", i, got, want)
		}
	}
	if a.Get(4092) != 0 {
		t.Fatalf("tail writes clobbered field 4092: %#x", a.Get(4092))
	}
}
