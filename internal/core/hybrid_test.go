package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

func TestHybridValidation(t *testing.T) {
	if _, err := NewHybrid(Config{T: 9, D: 20, P: 10}); err == nil {
		t.Error("accepted invalid config")
	}
	// 32-bit tokens cannot feed p+t > 26: no sparse mode, dense from the start.
	h, err := NewHybrid(Config{T: 2, D: 2, P: 25})
	if err != nil {
		t.Fatal(err)
	}
	if h.IsSparse() {
		t.Error("p+t > 26 started sparse")
	}
	if !h.AddHash(12345) || h.AddHash(12345) {
		t.Error("dense-from-start hybrid: changed bits wrong")
	}
}

func TestHybridStartsSparseAndDensifies(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 8} // 896 dense bytes
	h, err := NewHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsSparse() {
		t.Fatal("fresh hybrid not sparse")
	}
	r := rng(50)
	n := 0
	for h.IsSparse() {
		h.AddHash(r.Uint64())
		n++
		if n > 100000 {
			t.Fatal("never densified")
		}
	}
	// Break-even for 32-bit tokens at 896 bytes ≈ 224 tokens.
	if n < 150 || n > 400 {
		t.Errorf("densified after %d inserts; expected ≈ 224", n)
	}
	// Memory in sparse mode must have been below the dense footprint
	// right up to the switch, and estimates stay sane across it.
	est := h.Estimate()
	if math.Abs(est-float64(n))/float64(n) > 0.25 {
		t.Errorf("estimate %.0f right after densify (n=%d)", est, n)
	}
}

// TestHybridDensifyLossless: the dense state after conversion equals
// direct insertion through tokens (v-truncated hashes).
func TestHybridDensifyLossless(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 6}
	h, _ := NewHybrid(cfg)
	direct := MustNew(cfg)
	r := rng(51)
	for i := 0; i < 5000; i++ {
		hash := r.Uint64()
		h.AddHash(hash)
		direct.AddHash(HashFromToken(TokenFromHash(hash, DefaultTokenV), DefaultTokenV))
	}
	if h.IsSparse() {
		t.Fatal("still sparse after 5000 inserts at p=6")
	}
	if string(h.Densify().RegisterBytes()) != string(direct.RegisterBytes()) {
		t.Error("hybrid dense state differs from direct token-insertion")
	}
}

func TestHybridSparseEstimate(t *testing.T) {
	h, _ := NewHybrid(Config{T: 2, D: 20, P: 10})
	r := rng(52)
	for i := 0; i < 100; i++ {
		h.AddHash(r.Uint64())
	}
	if !h.IsSparse() {
		t.Fatal("should still be sparse at 100 tokens vs 3584 dense bytes")
	}
	est := h.Estimate()
	if math.Abs(est-100) > 10 {
		t.Errorf("sparse estimate %.1f, want ≈100", est)
	}
	if h.SizeBytes() >= 3584 {
		t.Errorf("sparse size %d not below dense size", h.SizeBytes())
	}
}

func TestHybridMergeSparseSparse(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 10}
	a, _ := NewHybrid(cfg)
	b, _ := NewHybrid(cfg)
	u, _ := NewHybrid(cfg)
	r := rng(53)
	for i := 0; i < 150; i++ {
		h := r.Uint64()
		a.AddHash(h)
		u.AddHash(h)
	}
	for i := 0; i < 150; i++ {
		h := r.Uint64()
		b.AddHash(h)
		u.AddHash(h)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !a.IsSparse() {
		t.Error("sparse+sparse below break-even should stay sparse")
	}
	if math.Abs(a.Estimate()-u.Estimate()) > 1e-9 {
		t.Errorf("merged estimate %.2f vs unified %.2f", a.Estimate(), u.Estimate())
	}
}

func TestHybridMergeMixedModes(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 6}
	sparse, _ := NewHybrid(cfg)
	denseH, _ := NewHybrid(cfg)
	union := MustNew(cfg)
	r := rng(54)
	for i := 0; i < 50; i++ {
		h := r.Uint64()
		sparse.AddHash(h)
		union.AddHash(HashFromToken(TokenFromHash(h, DefaultTokenV), DefaultTokenV))
	}
	for i := 0; i < 5000; i++ {
		h := r.Uint64()
		denseH.AddHash(h)
		union.AddHash(HashFromToken(TokenFromHash(h, DefaultTokenV), DefaultTokenV))
	}
	if sparse.IsSparse() == false || denseH.IsSparse() == true {
		t.Fatal("unexpected modes")
	}
	if err := denseH.Merge(sparse); err != nil {
		t.Fatal(err)
	}
	if string(denseH.Densify().RegisterBytes()) != string(union.RegisterBytes()) {
		t.Error("mixed-mode merge differs from unified token stream")
	}
	otherT, _ := NewHybrid(Config{T: 1, D: 9, P: 6})
	if err := denseH.Merge(otherT); err == nil {
		t.Error("merge accepted a different t")
	}
	if string(denseH.Densify().RegisterBytes()) != string(union.RegisterBytes()) {
		t.Error("failed merge changed the destination")
	}
	// A different d with the same t reduces both to common parameters.
	reduced, err := union.ReduceTo(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	otherD, _ := NewHybrid(Config{T: 2, D: 16, P: 6})
	if err := denseH.Merge(otherD); err != nil {
		t.Fatal(err)
	}
	if denseH.Config() != reduced.Config() || string(denseH.Densify().RegisterBytes()) != string(reduced.RegisterBytes()) {
		t.Error("cross-config merge differs from reducing the union")
	}
}

func TestHybridSerializationBothModes(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 8}
	// Sparse mode round trip.
	h, _ := NewHybrid(cfg)
	r := rng(55)
	for i := 0; i < 100; i++ {
		h.AddHash(r.Uint64())
	}
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var h2 Hybrid
	if err := h2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !h2.IsSparse() || h2.Estimate() != h.Estimate() {
		t.Error("sparse round trip changed state")
	}
	// Dense mode round trip.
	for i := 0; i < 5000; i++ {
		h.AddHash(r.Uint64())
	}
	data, err = h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var h3 Hybrid
	if err := h3.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if h3.IsSparse() || h3.Estimate() != h.Estimate() {
		t.Error("dense round trip changed state")
	}
	// A dense hybrid serializes exactly as its sketch does.
	raw, _ := h.Densify().MarshalBinary()
	if !bytes.Equal(data, raw) {
		t.Error("dense hybrid bytes differ from the sketch's own")
	}
	// Corrupt payloads.
	if err := new(Hybrid).UnmarshalBinary([]byte{'X'}); err == nil {
		t.Error("accepted bad magic")
	}
	if err := new(Hybrid).UnmarshalBinary([]byte("ELT1\x02\x14")); err == nil {
		t.Error("accepted a truncated token header")
	}
}

// tokenBlob builds a sparse blob by hand.
func tokenBlob(cfg Config, tokens ...uint32) []byte {
	out := append([]byte(tokenBlobMagic), byte(cfg.T), byte(cfg.D), byte(cfg.P))
	for _, w := range tokens {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

func TestHybridTokenBlobDecoding(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 8} // break-even 224 tokens
	ok := tokenBlob(cfg, 1<<6|3, 2<<6|0, 2<<6|1)
	h, err := HybridFromBinary(ok)
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsSparse() || h.Tokens() != 3 {
		t.Fatalf("decoded sparse=%v tokens=%d", h.IsSparse(), h.Tokens())
	}
	if back, _ := h.MarshalBinary(); !bytes.Equal(back, ok) {
		t.Error("canonical blob did not round-trip byte for byte")
	}
	for name, bad := range map[string][]byte{
		"unsorted":        tokenBlob(cfg, 2<<6, 1<<6),
		"duplicate":       tokenBlob(cfg, 1<<6, 1<<6),
		"impossible nlz":  tokenBlob(cfg, 1<<6|39),
		"ragged body":     append(tokenBlob(cfg, 1<<6), 0xff),
		"invalid config":  tokenBlob(Config{T: 9, D: 20, P: 8}),
		"p+t past tokens": tokenBlob(Config{T: 2, D: 2, P: 25}),
	} {
		if _, err := HybridFromBinary(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// At or past break-even the blob is accepted and densified, and the
	// result is what adding the same tokens one by one gives.
	var many []uint32
	ref, _ := NewHybrid(cfg)
	for i := 0; i < 300; i++ {
		w := uint32(i+1)<<6 | uint32(i%30)
		many = append(many, w)
		ref.AddHash(HashFromToken(uint64(w), Token32V))
	}
	big, err := HybridFromBinary(tokenBlob(cfg, many...))
	if err != nil {
		t.Fatal(err)
	}
	if big.IsSparse() || ref.IsSparse() {
		t.Fatal("300 tokens at break-even 224 stayed sparse")
	}
	a, _ := big.MarshalBinary()
	b, _ := ref.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Error("over-break-even blob densified to different registers")
	}
}

// TestHybridParityAcrossBreakEven is the contract the store and the cluster
// oracle rest on, checked on seeded streams that cross break-even: at every
// checkpoint the hybrid's estimate is the dense estimate to the bit, its
// bytes do not depend on insertion order or on whether state arrived by
// add or by merge, and merging in all four mode pairs gives the dense merge.
func TestHybridParityAcrossBreakEven(t *testing.T) {
	for _, cfg := range []Config{{T: 2, D: 20, P: 8}, {T: 2, D: 20, P: 12}, {T: 1, D: 9, P: 10}, {T: 0, D: 2, P: 9}} {
		r := rng(int64(900 + cfg.P))
		n := 3 * cfg.breakEven() / 2
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = r.Uint64()
			if i%7 == 3 {
				hashes[i] = hashes[i/2] // duplicates
			}
		}
		forward, _ := NewHybrid(cfg)
		dense := MustNew(cfg)
		step := n/40 + 1
		for i, x := range hashes {
			before, wasDense := dense.StateChanges(), !forward.IsSparse()
			dense.AddHash(x)
			changed := forward.AddHash(x)
			if wasDense && changed != (dense.StateChanges() != before) {
				t.Fatalf("%+v: dense-mode changed bit disagrees at %d", cfg, i)
			}
			if i%step != 0 && i != n-1 {
				continue
			}
			if got, want := forward.Estimate(), dense.Estimate(); got != want {
				t.Fatalf("%+v: after %d adds (sparse=%v) estimate %v, dense %v", cfg, i+1, forward.IsSparse(), got, want)
			}
			if forward.IsSparse() && forward.Tokens() >= cfg.breakEven() {
				t.Fatalf("%+v: sparse with %d tokens at break-even %d", cfg, forward.Tokens(), cfg.breakEven())
			}
			// Same elements, reverse order, and split over two halves that merge.
			backward, _ := NewHybrid(cfg)
			for j := i; j >= 0; j-- {
				backward.AddHash(hashes[j])
			}
			left, _ := NewHybrid(cfg)
			right, _ := NewHybrid(cfg)
			for j := 0; j <= i; j++ {
				if j%3 == 0 {
					left.AddHash(hashes[j])
				} else {
					right.AddHash(hashes[j])
				}
			}
			if err := left.Merge(right); err != nil {
				t.Fatal(err)
			}
			// One bulk add, and bulk adds of 100 on top of single adds.
			bulk, _ := NewHybrid(cfg)
			if changed := bulk.AddHashes(hashes[:i+1]); !changed {
				t.Fatalf("%+v: bulk add of %d hashes reported no change", cfg, i+1)
			}
			if bulk.AddHashes(hashes[:i+1]) && bulk.IsSparse() {
				t.Fatalf("%+v: repeating a bulk add changed a sparse sketch", cfg)
			}
			chunks, _ := NewHybrid(cfg)
			for j := 0; j <= i; j += 107 {
				chunks.AddHash(hashes[j])
				chunks.AddHashes(hashes[j+1 : min(j+107, i+1)])
			}
			want, _ := forward.MarshalBinary()
			for name, other := range map[string]*Hybrid{"reverse order": backward, "merge of two halves": left, "one bulk add": bulk, "chunked bulk adds": chunks} {
				if got, _ := other.MarshalBinary(); !bytes.Equal(got, want) {
					t.Fatalf("%+v: after %d adds, %s serializes differently (sparse %v vs %v)", cfg, i+1, name, other.IsSparse(), forward.IsSparse())
				}
			}
			back, err := HybridFromBinary(want)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := back.MarshalBinary(); !bytes.Equal(again, want) || back.Estimate() != forward.Estimate() {
				t.Fatalf("%+v: after %d adds, round trip changed the state", cfg, i+1)
			}
		}
		if forward.IsSparse() {
			t.Fatalf("%+v: never crossed break-even", cfg)
		}
		if string(forward.Densify().RegisterBytes()) != string(dense.RegisterBytes()) {
			t.Fatalf("%+v: registers differ from direct insertion", cfg)
		}

		// All four mode pairs against the dense merge.
		small, big := cfg.breakEven()/3, 2*cfg.breakEven()
		for _, sizes := range [][2]int{{small, small}, {small, big}, {big, small}, {big, big}} {
			a, _ := NewHybrid(cfg)
			b, _ := NewHybrid(cfg)
			da, db := MustNew(cfg), MustNew(cfg)
			for i := 0; i < sizes[0]; i++ {
				x := r.Uint64()
				a.AddHash(x)
				da.AddHash(x)
			}
			for i := 0; i < sizes[1]; i++ {
				x := r.Uint64()
				b.AddHash(x)
				db.AddHash(x)
			}
			bBefore, _ := b.MarshalBinary()
			acc := da.Clone()
			if err := b.MergeInto(acc); err != nil {
				t.Fatal(err)
			}
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			if err := da.Merge(db); err != nil {
				t.Fatal(err)
			}
			if a.Estimate() != da.Estimate() || string(a.ToSketch().RegisterBytes()) != string(da.RegisterBytes()) {
				t.Fatalf("%+v: merge of sizes %v differs from the dense merge", cfg, sizes)
			}
			if string(acc.RegisterBytes()) != string(da.RegisterBytes()) {
				t.Fatalf("%+v: MergeInto of sizes %v differs from the dense merge", cfg, sizes)
			}
			if a.IsSparse() != (sizes[0]+sizes[1] < cfg.breakEven()) {
				t.Fatalf("%+v: merge of sizes %v ended sparse=%v", cfg, sizes, a.IsSparse())
			}
			if bAfter, _ := b.MarshalBinary(); !bytes.Equal(bBefore, bAfter) {
				t.Fatalf("%+v: merge modified its source", cfg)
			}
		}
	}
}

func TestSortTokens(t *testing.T) {
	r := rng(31)
	for _, n := range []int{0, 1, 2, 33, 1000, 70000} {
		a := make([]uint32, n)
		for i := range a {
			a[i] = uint32(r.Uint64() >> uint(i%33)) // all magnitudes, many duplicates
		}
		want := slices.Clone(a)
		slices.Sort(want)
		sortTokens(a, make([]uint32, n))
		if !slices.Equal(a, want) {
			t.Fatalf("n=%d: not sorted like slices.Sort", n)
		}
	}
}

func TestHybridEstimateDoesNotAllocate(t *testing.T) {
	h, _ := NewHybrid(Config{T: 2, D: 20, P: 12})
	r := rng(77)
	for i := 0; i < 1000; i++ {
		h.AddHash(r.Uint64())
	}
	h.Estimate() // fills the scratch pool
	if n := testing.AllocsPerRun(50, func() { h.Estimate() }); n != 0 {
		t.Errorf("sparse Estimate allocates %v times per call", n)
	}
	d := h.ToSketch()
	if n := testing.AllocsPerRun(50, func() { d.Estimate() }); n != 0 {
		t.Errorf("dense Estimate allocates %v times per call", n)
	}
}

func TestHybridFootprintIsTight(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 12}
	for _, n := range []int{1, 16, 100, 1000, 3000} {
		h, _ := NewHybrid(cfg)
		r := rng(int64(n))
		for i := 0; i < n; i++ {
			h.AddHash(r.Uint64())
		}
		payload := 4 * h.Tokens()
		if got := h.MemoryFootprint(); got < payload+hybridOverhead || got > payload+payload/7+hybridOverhead+8 {
			t.Errorf("n=%d: footprint %d bytes for %d payload bytes", n, got, payload)
		}
	}
}

func TestHybridAddString(t *testing.T) {
	h, _ := NewHybrid(Config{T: 2, D: 20, P: 8})
	h.AddString("a")
	h.AddString("a")
	h.AddString("b")
	if got := h.Estimate(); math.Abs(got-2) > 0.1 {
		t.Errorf("estimate %.2f, want 2", got)
	}
}
