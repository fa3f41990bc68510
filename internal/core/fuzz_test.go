package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
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
// "ELT3" token blob (every reject case of rejectedTokenBlobs — a wrong
// number of ones in either bit vector, a quotient out of range, an
// impossible NLZ, pairs not ascending, padding bits, trailing bytes, a
// count in a longer form or larger than the body, the retired "ELT2",
// "ELT1" and "ET" layouts — and blobs at or past break-even) and the dense
// sketch format. Whatever is accepted must be canonical — a sparse blob
// re-marshals to the very bytes it came from — estimate like the dense
// sketch it converts to, and hold no more heap than the blob is long:
// nothing is sized by the count a blob claims.
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
	for i := 0; i < 5000; i++ {
		h.AddHash(r.Uint64())
	}
	dense, _ := h.MarshalBinary()
	f.Add(dense)
	f.Add(tokenBlob(cfg))
	for _, bad := range rejectedTokenBlobs() {
		f.Add(bad)
	}
	var many []uint64
	for i := uint64(1); i <= 24; i++ {
		many = append(many, i%16<<6|i/16, i%16<<6|(i/16+30))
	}
	slices.Sort(many)
	f.Add(tokenBlob(Config{T: 2, D: 20, P: 2}, many...)) // past break-even (14 bytes)
	f.Add(tokenBlob(Config{T: 2, D: 20, P: 26}, 1<<6, 1<<33))
	f.Fuzz(func(t *testing.T, data []byte) {
		var hy Hybrid
		var words [8]uint64
		batch, batchErr := DecodeBatch(data, words[:])
		if err := hy.UnmarshalBinary(data); err != nil {
			if batchErr == nil {
				t.Fatalf("DecodeBatch accepted what UnmarshalBinary refuses: %v", err)
			}
			return
		}
		if batchErr != nil {
			t.Fatalf("DecodeBatch refused what UnmarshalBinary accepts: %v", batchErr)
		}
		if got, _ := batch.MarshalBinary(); !bytes.Equal(got, data) && hy.IsSparse() {
			t.Fatal("DecodeBatch into a buffer gives other bytes than the blob's")
		}
		if hy.IsSparse() && hy.SizeBytes() >= hy.Config().SizeBytes() {
			t.Fatalf("accepted %d tokens sparse in %d bytes, the dense array is %d", hy.Tokens(), hy.SizeBytes(), hy.Config().SizeBytes())
		}
		if hy.IsSparse() && hy.MemoryFootprint() > len(data)+len(data)/4+hybridOverhead+16 {
			t.Fatalf("a blob of %d bytes decoded into %d bytes of heap", len(data), hy.MemoryFootprint())
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

// FuzzHybridRoundTrip builds a sparse sketch from arbitrary hashes — the
// fuzzer's bytes taken eight at a time, at a p+t it also picks — and checks
// the whole cycle: the bytes are the reference encoding of the token set,
// they decode, the decoded sketch marshals to the same bytes and estimates
// the same, and one more element leaves both copies equal again.
func FuzzHybridRoundTrip(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte("one token, eight bytes and a tail"))
	seed := make([]byte, 8*700)
	r := rng(4)
	r.Read(seed)
	f.Add(uint8(0), seed) // crosses l = 10 … 1 and break-even at p = 8
	f.Add(uint8(4), seed)
	f.Add(uint8(24), seed)
	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		cfg := Config{T: 2, D: 20, P: 8 + int(pick)%19}
		var hashes []uint64
		for ; len(data) >= 8; data = data[8:] {
			hashes = append(hashes, binary.LittleEndian.Uint64(data))
		}
		h, _ := NewHybrid(cfg)
		for _, x := range hashes[:len(hashes)/2] {
			h.AddHash(x)
		}
		h.AddHashes(hashes[len(hashes)/2:])
		blob, _ := h.MarshalBinary()
		want := cfg.wantBytes(hashes)
		if !bytes.Equal(blob, want) {
			t.Fatalf("%d hashes at p=%d: not the reference encoding", len(hashes), cfg.P)
		}
		// The same elements as one batch, and as two absorbed one after the
		// other, give the same bytes.
		var words [4]uint64
		batch, _ := MakeBatch(cfg, hashes, words[:])
		first, _ := MakeBatch(cfg, hashes[:len(hashes)/3], nil)
		second, _ := MakeBatch(cfg, hashes[len(hashes)/3:], nil)
		halves, _ := NewHybrid(cfg)
		halves.Absorb(&first)
		halves.Absorb(&second)
		for name, o := range map[string]*Hybrid{"one batch": &batch, "two absorbed batches": halves} {
			if got, _ := o.MarshalBinary(); !bytes.Equal(got, want) {
				t.Fatalf("%d hashes at p=%d: %s is not the reference encoding", len(hashes), cfg.P, name)
			}
		}
		back, err := HybridFromBinary(blob)
		if err != nil {
			t.Fatalf("own bytes rejected: %v", err)
		}
		if again, _ := back.MarshalBinary(); !bytes.Equal(again, blob) {
			t.Fatal("bytes -> Hybrid -> bytes is not the identity")
		}
		if back.Estimate() != h.Estimate() || back.IsSparse() != h.IsSparse() || back.Tokens() != h.Tokens() {
			t.Fatal("the decoded sketch differs from the one that was encoded")
		}
		extra := uint64(len(hashes))*0x9e3779b97f4a7c15 + uint64(pick)
		if h.AddHash(extra) != back.AddHash(extra) {
			t.Fatal("the copies disagree on whether an element is new")
		}
		a, _ := h.MarshalBinary()
		b, _ := back.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatal("the copies differ after the same insert")
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

// paperConfigs are the (t, d) pairs of the paper's evaluation: the four
// recommended ELL configurations and HLL, EHLL and ULL.
var paperConfigs = [...][2]int{{2, 20}, {2, 24}, {1, 9}, {2, 16}, {0, 0}, {0, 1}, {0, 2}}

// FuzzCoefficientsByGroup: the φ-group coefficients of Algorithm 3 are
// bit-identical to the bit-by-bit reference, for one register of any
// content under any paper configuration and precision, and for a batch
// holding every u the register's 6+t bits can hold, with random
// indicator bits. The seeds cover u = 0, u ≤ d, and u at and past the
// largest update value, where φ saturates at 64-p.
func FuzzCoefficientsByGroup(f *testing.F) {
	for i, td := range paperConfigs {
		for _, p := range []uint8{2, 12, 26} {
			cfg := Config{T: td[0], D: td[1], P: int(p)}
			for _, u := range []uint64{0, 1, uint64(cfg.D) / 2, uint64(cfg.D), cfg.MaxUpdateValue(), cfg.MaxUpdateValue() - 1} {
				f.Add(uint8(i), p, u, uint64(0x9e3779b97f4a7c15)*(u+1))
			}
		}
	}
	f.Fuzz(func(t *testing.T, ci, p uint8, u, indicators uint64) {
		td := paperConfigs[int(ci)%len(paperConfigs)]
		cfg := Config{T: td[0], D: td[1], P: MinP + int(p)%(MaxP-MinP+1)}
		if cfg.Validate() != nil {
			return
		}
		field := uint64(1)<<cfg.RegisterWidth() - 1
		checkByGroup(t, cfg, (u<<uint(cfg.D)|indicators&(uint64(1)<<uint(cfg.D)-1))&field)
		r := rand.New(rand.NewSource(int64(indicators)))
		regs := make([]uint64, 0, 64<<uint(cfg.T))
		for v := uint64(0); v < 64<<uint(cfg.T); v++ {
			regs = append(regs, v<<uint(cfg.D)|r.Uint64()&(uint64(1)<<uint(cfg.D)-1))
		}
		checkByGroup(t, cfg, regs...)
	})
}
