package core

import (
	"bytes"
	"math"
	"testing"
)

// Fuzz targets: no input, however malformed, may panic a deserializer or
// produce a sketch whose estimator misbehaves. Each target doubles as a
// regression corpus via the seed inputs below.

func FuzzUnmarshalBinary(f *testing.F) {
	s := MustNew(Config{T: 2, D: 20, P: 4})
	fillRandom(s, 500, 1)
	valid, _ := s.MarshalBinary()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{'E', 'L', 1, 2, 20, 4, 0, 0})
	f.Add([]byte{'E', 'L', 1, 99, 99, 99, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var sk Sketch
		if err := sk.UnmarshalBinary(data); err != nil {
			return
		}
		est := sk.EstimateML()
		if math.IsNaN(est) || est < 0 {
			t.Fatalf("estimate %v from accepted payload", est)
		}
	})
}

func FuzzUnmarshalCompressed(f *testing.F) {
	s := MustNew(Config{T: 1, D: 9, P: 4})
	fillRandom(s, 200, 2)
	valid, _ := s.MarshalCompressed()
	f.Add(valid)
	f.Add([]byte{'E', 'C', 1, 9, 4})
	f.Add([]byte{'E', 'C', 200, 9, 4, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var sk Sketch
		if err := sk.UnmarshalCompressed(data); err != nil {
			return
		}
		// Any accepted payload decodes to a structurally valid register
		// array (widths enforced by construction); estimation must work.
		est := sk.EstimateML()
		if math.IsNaN(est) || est < 0 {
			t.Fatalf("estimate %v from accepted compressed payload", est)
		}
	})
}

// FuzzHybridUnmarshal covers both value blobs the store decodes: the sparse
// "ELT2" token blob (truncated, ragged, padding bits set, unsorted,
// duplicate, impossible tokens, at or past break-even, the retired "ELT1"
// layout) and the dense sketch format. Whatever is accepted must be
// canonical — re-marshal to itself after one round — and estimate like the
// dense sketch it converts to.
func FuzzHybridUnmarshal(f *testing.F) {
	cfg := Config{T: 2, D: 20, P: 8}
	h, _ := NewHybrid(cfg)
	r := rng(3)
	for i := 0; i < 50; i++ {
		h.AddHash(r.Uint64())
	}
	sparse, _ := h.MarshalBinary()
	f.Add(sparse)
	f.Add(sparse[:len(sparse)-3])
	odd, _ := NewHybrid(Config{T: 2, D: 20, P: 12}) // 20-bit tokens: 4 spare bits after 51 of them
	for i := 0; i < 51; i++ {
		odd.AddHash(r.Uint64())
	}
	padded, _ := odd.MarshalBinary()
	f.Add(padded)
	padded = append([]byte(nil), padded...)
	padded[len(padded)-1] |= 0x80
	f.Add(padded)
	for i := 0; i < 5000; i++ {
		h.AddHash(r.Uint64())
	}
	dense, _ := h.MarshalBinary()
	f.Add(dense)
	f.Add(tokenBlob(cfg))
	f.Add(tokenBlob(cfg, 2<<6, 1<<6))
	f.Add(tokenBlob(cfg, 1<<6, 1<<6))
	f.Add(tokenBlob(cfg, 1<<6|63))
	f.Add(append(tokenBlob(cfg, 1<<6), 0))
	f.Add(tokenBlob(Config{T: 2, D: 20, P: 2}, 1<<6, 2<<6, 3<<6, 4<<6, 5<<6, 6<<6, 7<<6, 8<<6, 9<<6, 10<<6, 11<<6, 12<<6, 13<<6)) // past break-even (12)
	f.Add(tokenBlob(Config{T: 2, D: 20, P: 26}, 1<<6, 1<<33))
	f.Add(append([]byte("ELT1\x02\x14\x08"), 0x43, 0, 0, 0, 0x81, 0, 0, 0)) // v = 26 tokens, 4 bytes each
	f.Fuzz(func(t *testing.T, data []byte) {
		var hy Hybrid
		if err := hy.UnmarshalBinary(data); err != nil {
			return
		}
		if hy.IsSparse() && hy.Tokens() >= hy.Config().breakEven() {
			t.Fatalf("accepted %d tokens sparse at break-even %d", hy.Tokens(), hy.Config().breakEven())
		}
		est := hy.Estimate()
		if math.IsNaN(est) || est < 0 {
			t.Fatalf("estimate %v from accepted hybrid payload", est)
		}
		if want := hy.ToSketch().Estimate(); est != want {
			t.Fatalf("estimate %v, dense conversion %v", est, want)
		}
		once, _ := hy.MarshalBinary()
		var again Hybrid
		if err := again.UnmarshalBinary(once); err != nil {
			t.Fatalf("re-decoding own bytes: %v", err)
		}
		if twice, _ := again.MarshalBinary(); !bytes.Equal(once, twice) {
			t.Fatal("marshal is not a fixed point")
		}
		if hy.IsSparse() && !bytes.Equal(once, data) {
			t.Fatal("accepted a non-canonical token blob")
		}
	})
}

func FuzzTokenHashRoundTrip(f *testing.F) {
	f.Add(uint64(0), 10)
	f.Add(^uint64(0), 26)
	f.Add(uint64(0xdeadbeef), 1)
	f.Fuzz(func(t *testing.T, h uint64, v int) {
		if v < TokenMinV || v > TokenMaxV {
			return
		}
		w := TokenFromHash(h, v)
		if w >= uint64(1)<<uint(v+6) {
			t.Fatalf("token %#x exceeds %d bits", w, v+6)
		}
		if TokenFromHash(HashFromToken(w, v), v) != w {
			t.Fatalf("token %#x not a fixed point", w)
		}
	})
}

func FuzzTokenSetUnmarshal(f *testing.F) {
	ts, _ := NewTokenSet(26)
	r := rng(8)
	for i := 0; i < 50; i++ {
		ts.AddHash(r.Uint64())
	}
	valid, _ := ts.MarshalBinary()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{'E', 'T', 1, 26, 0})
	f.Add([]byte{'E', 'T', 1, 99, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := TokenSetFromBinary(data)
		if err != nil {
			return
		}
		est := back.EstimateML()
		if math.IsNaN(est) || est < 0 {
			t.Fatalf("estimate %v from accepted token payload", est)
		}
	})
}
