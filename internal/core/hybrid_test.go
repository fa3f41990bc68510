package core

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// breakEven is the smallest token count past break-even.
func (c Config) breakEven() int {
	w := int(c.tokenWidth())
	return (8*c.SizeBytes() + w - 1) / w
}

func TestHybridValidation(t *testing.T) {
	if _, err := NewHybrid(Config{T: 9, D: 20, P: 10}); err == nil {
		t.Error("accepted invalid config")
	}
	// Every valid configuration has a sparse mode, whatever p+t.
	h, err := NewHybrid(Config{T: 6, D: 2, P: 26})
	if err != nil {
		t.Fatal(err)
	}
	if !h.AddHash(12345) || h.AddHash(12345) || !h.IsSparse() || h.Tokens() != 1 {
		t.Errorf("p+t = 32: sparse=%v tokens=%d after one element added twice", h.IsSparse(), h.Tokens())
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
	// Break-even for 16-bit tokens at 896 bytes is 448 tokens; a tenth of
	// that many random hashes share a v = 10 token with an earlier one.
	if n < 448 || n > 700 {
		t.Errorf("densified after %d inserts; expected ≈ 500", n)
	}
	// Memory in sparse mode must have been below the dense footprint
	// right up to the switch, and estimates stay sane across it.
	est := h.Estimate()
	if math.Abs(est-float64(n))/float64(n) > 0.25 {
		t.Errorf("estimate %.0f right after densify (n=%d)", est, n)
	}
}

// TestHybridDensifyLossless: the dense state after conversion equals
// direct insertion of the hashes.
func TestHybridDensifyLossless(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 6}
	h, _ := NewHybrid(cfg)
	direct := MustNew(cfg)
	r := rng(51)
	for i := 0; i < 5000; i++ {
		hash := r.Uint64()
		h.AddHash(hash)
		direct.AddHash(hash)
	}
	if h.IsSparse() {
		t.Fatal("still sparse after 5000 inserts at p=6")
	}
	if string(h.Densify().RegisterBytes()) != string(direct.RegisterBytes()) {
		t.Error("hybrid dense state differs from direct insertion")
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
		union.AddHash(h)
	}
	for i := 0; i < 5000; i++ {
		h := r.Uint64()
		denseH.AddHash(h)
		union.AddHash(h)
	}
	if sparse.IsSparse() == false || denseH.IsSparse() == true {
		t.Fatal("unexpected modes")
	}
	if err := denseH.Merge(sparse); err != nil {
		t.Fatal(err)
	}
	if string(denseH.Densify().RegisterBytes()) != string(union.RegisterBytes()) {
		t.Error("mixed-mode merge differs from the unified stream")
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
	if err := new(Hybrid).UnmarshalBinary([]byte("ELT2\x02\x14")); err == nil {
		t.Error("accepted a truncated token header")
	}
}

// tokenBlob builds a sparse blob by hand, bit by bit.
func tokenBlob(cfg Config, tokens ...uint64) []byte {
	w := int(cfg.tokenWidth())
	body := make([]byte, (len(tokens)*w+7)/8)
	for i, x := range tokens {
		for b := 0; b < w; b++ {
			if x>>uint(b)&1 != 0 {
				body[(i*w+b)/8] |= 1 << uint((i*w+b)%8)
			}
		}
	}
	return append(append([]byte(tokenBlobMagic), byte(cfg.T), byte(cfg.D), byte(cfg.P)), body...)
}

func TestHybridTokenBlobDecoding(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 9} // 17-bit tokens, break-even 844
	ok := tokenBlob(cfg, 1<<6|3, 2<<6|0, 2<<6|1)
	if len(ok) != 7+7 { // 51 bits
		t.Fatalf("hand-built blob is %d bytes", len(ok))
	}
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
	padded := tokenBlob(cfg, 1<<6|3, 2<<6|0, 2<<6|1)
	padded[len(padded)-1] |= 0x80
	for name, bad := range map[string][]byte{
		"unsorted":       tokenBlob(cfg, 2<<6, 1<<6),
		"duplicate":      tokenBlob(cfg, 1<<6, 1<<6),
		"impossible nlz": tokenBlob(cfg, 1<<6|54),
		"ragged body":    append(tokenBlob(cfg, 1<<6), 0),
		"one byte":       append(tokenBlob(cfg), 0),
		"padding bit":    padded,
		"truncated":      ok[:len(ok)-1],
		"invalid config": tokenBlob(Config{T: 9, D: 20, P: 8}),
		"v = 26 blob":    append([]byte("ELT1\x02\x14\x09"), 0x43, 0, 0, 0),
	} {
		if _, err := HybridFromBinary(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The largest zero count a token can carry is 64-v.
	if _, err := HybridFromBinary(tokenBlob(cfg, 1<<6|53)); err != nil {
		t.Errorf("nlz = 64-v rejected: %v", err)
	}
	// A configuration 32-bit tokens could not feed decodes like any other.
	wide := Config{T: 6, D: 2, P: 26}
	if h, err := HybridFromBinary(tokenBlob(wide, 5<<6|1, 1<<37|7<<6)); err != nil || h.Tokens() != 2 {
		t.Errorf("38-bit tokens: %v", err)
	}
	// At or past break-even the blob is accepted and densified, and the
	// result is what adding the same tokens one by one gives.
	var many []uint64
	ref, _ := NewHybrid(cfg)
	for i := 0; i < 1000; i++ {
		x := uint64(i+1)<<6 | uint64(i%30)
		many = append(many, x)
		ref.AddHash(HashFromToken(x, cfg.tokenV()))
	}
	big, err := HybridFromBinary(tokenBlob(cfg, many...))
	if err != nil {
		t.Fatal(err)
	}
	if big.IsSparse() || ref.IsSparse() {
		t.Fatal("1000 tokens at break-even 844 stayed sparse")
	}
	a, _ := big.MarshalBinary()
	b, _ := ref.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Error("over-break-even blob densified to different registers")
	}
}

// addAll feeds hashes to h: one by one where that is affordable, else in
// bulk with a few single adds in between (a single insert moves half the
// token array, and the widest configurations hold hundreds of thousands).
func addAll(h *Hybrid, hashes []uint64) {
	if h.Config().breakEven() <= 1<<14 {
		for _, x := range hashes {
			h.AddHash(x)
		}
		return
	}
	for len(hashes) > 0 {
		h.AddHash(hashes[0])
		k := min(len(hashes), 20000)
		h.AddHashes(hashes[1:k])
		hashes = hashes[k:]
	}
}

// TestHybridParityAcrossBreakEven is the contract the store and the cluster
// oracle rest on, checked on seeded streams that cross break-even: at every
// checkpoint the hybrid's estimate is the dense estimate to the bit, its
// bytes do not depend on insertion order or on whether state arrived by
// add or by merge, and merging in all four mode pairs gives the dense merge.
// The configurations cover token widths that are a whole number of bytes
// (16, 24), the default (20), odd ones (15, 17) and one past 32 bits.
func TestHybridParityAcrossBreakEven(t *testing.T) {
	for _, cfg := range []Config{
		{T: 2, D: 20, P: 8}, {T: 2, D: 20, P: 12}, {T: 1, D: 9, P: 10}, {T: 0, D: 2, P: 9},
		{T: 6, D: 4, P: 12}, // p+t = 18
		{T: 6, D: 0, P: 21}, // p+t = 27: 33-bit tokens, break-even 762 601
	} {
		r := rng(int64(900 + cfg.P))
		n := 3 * cfg.breakEven() / 2
		checkpoints, chunk := 40, 107
		if n > 1<<16 {
			if testing.Short() {
				continue
			}
			checkpoints, chunk = 3, 20011
		}
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = r.Uint64()
			if i%7 == 3 {
				hashes[i] = hashes[i/2] // duplicates
			}
		}
		forward, _ := NewHybrid(cfg)
		dense := MustNew(cfg)
		step := n/checkpoints + 1
		for done := 0; done < n; {
			from := done
			done = min(done+step, n)
			if done > cfg.breakEven()-step/2 && from < cfg.breakEven()-step/2 {
				done = cfg.breakEven() - step/2 // one checkpoint just below break-even
			}
			for _, x := range hashes[from:done] {
				dense.AddHash(x)
			}
			if forward.IsSparse() {
				addAll(forward, hashes[from:done])
			} else {
				for _, x := range hashes[from:done] {
					before := forward.dense.StateChanges()
					if changed := forward.AddHash(x); changed != (forward.dense.StateChanges() != before) {
						t.Fatalf("%+v: dense-mode changed bit disagrees", cfg)
					}
				}
			}
			if got, want := forward.Estimate(), dense.Estimate(); got != want {
				t.Fatalf("%+v: after %d adds (sparse=%v) estimate %v, dense %v", cfg, done, forward.IsSparse(), got, want)
			}
			if forward.IsSparse() && forward.Tokens() >= cfg.breakEven() {
				t.Fatalf("%+v: sparse with %d tokens at break-even %d", cfg, forward.Tokens(), cfg.breakEven())
			}
			// Same elements, reverse order, and split over two halves that merge.
			reversed := slices.Clone(hashes[:done])
			slices.Reverse(reversed)
			backward, _ := NewHybrid(cfg)
			addAll(backward, reversed)
			var thirds, rest []uint64
			for j, x := range hashes[:done] {
				if j%3 == 0 {
					thirds = append(thirds, x)
				} else {
					rest = append(rest, x)
				}
			}
			left, _ := NewHybrid(cfg)
			right, _ := NewHybrid(cfg)
			addAll(left, thirds)
			addAll(right, rest)
			if err := left.Merge(right); err != nil {
				t.Fatal(err)
			}
			// One bulk add, and bulk adds on top of single adds.
			bulk, _ := NewHybrid(cfg)
			if changed := bulk.AddHashes(hashes[:done]); !changed {
				t.Fatalf("%+v: bulk add of %d hashes reported no change", cfg, done)
			}
			if bulk.AddHashes(hashes[:done]) && bulk.IsSparse() {
				t.Fatalf("%+v: repeating a bulk add changed a sparse sketch", cfg)
			}
			chunks, _ := NewHybrid(cfg)
			for j := 0; j < done; j += chunk {
				chunks.AddHash(hashes[j])
				chunks.AddHashes(hashes[j+1 : min(j+chunk, done)])
			}
			want, _ := forward.MarshalBinary()
			for name, other := range map[string]*Hybrid{"reverse order": backward, "merge of two halves": left, "one bulk add": bulk, "chunked bulk adds": chunks} {
				if got, _ := other.MarshalBinary(); !bytes.Equal(got, want) {
					t.Fatalf("%+v: after %d adds, %s serializes differently (sparse %v vs %v)", cfg, done, name, other.IsSparse(), forward.IsSparse())
				}
			}
			back, err := HybridFromBinary(want)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := back.MarshalBinary(); !bytes.Equal(again, want) || back.Estimate() != forward.Estimate() {
				t.Fatalf("%+v: after %d adds, round trip changed the state", cfg, done)
			}
			if clone, _ := forward.Clone().MarshalBinary(); !bytes.Equal(clone, want) {
				t.Fatalf("%+v: after %d adds, the clone serializes differently", cfg, done)
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
			as, bs := make([]uint64, sizes[0]), make([]uint64, sizes[1])
			for i := range as {
				as[i] = r.Uint64()
				da.AddHash(as[i])
			}
			for i := range bs {
				bs[i] = r.Uint64()
				db.AddHash(bs[i])
			}
			addAll(a, as)
			addAll(b, bs)
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

// TestHybridMergeAcrossPrecisions: a sparse key merged with a key of another
// precision, sparse or dense, holds what MergeCompatible gives for the dense
// sketches of the two streams — a token at v = p+t replays into any p' <= p.
func TestHybridMergeAcrossPrecisions(t *testing.T) {
	base := Config{T: 2, D: 20, P: 12}
	r := rng(61)
	mine := make([]uint64, 800)
	for i := range mine {
		mine[i] = r.Uint64()
	}
	for _, p := range []int{10, 14} {
		for _, n := range []int{300, 40000} { // sparse and dense at both precisions
			other := Config{T: 2, D: 20, P: p}
			theirs := make([]uint64, n)
			for i := range theirs {
				theirs[i] = r.Uint64()
			}
			a, _ := NewHybrid(base)
			b, _ := NewHybrid(other)
			da, db := MustNew(base), MustNew(other)
			a.AddHashes(mine)
			b.AddHashes(theirs)
			for _, x := range mine {
				da.AddHash(x)
			}
			for _, x := range theirs {
				db.AddHash(x)
			}
			if !a.IsSparse() || b.IsSparse() != (n == 300) {
				t.Fatalf("p=%d n=%d: modes sparse=%v/%v", p, n, a.IsSparse(), b.IsSparse())
			}
			want, err := MergeCompatible(da, db)
			if err != nil {
				t.Fatal(err)
			}
			for name, pair := range map[string][2]*Hybrid{"p=12 <- other": {a.Clone(), b}, "other <- p=12": {b.Clone(), a}} {
				if err := pair[0].Merge(pair[1]); err != nil {
					t.Fatal(err)
				}
				got := pair[0].ToSketch()
				if got.Config() != want.Config() || !bytes.Equal(got.RegisterBytes(), want.RegisterBytes()) {
					t.Errorf("p=%d n=%d, %s: registers differ from MergeCompatible of the dense sketches", p, n, name)
				}
			}
		}
	}
}

func TestSortTokens(t *testing.T) {
	r := rng(31)
	for _, w := range []uint{8, 15, 16, 20, 24, 33, 38} {
		for _, n := range []int{0, 1, 2, 33, 1000, 70000} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = r.Uint64() >> (64 - w) >> uint(i%int(w+1)) // all magnitudes, many duplicates
			}
			want := slices.Clone(a)
			slices.Sort(want)
			if got := sortTokens(a, make([]uint64, n), w); !slices.Equal(got, want) {
				t.Fatalf("w=%d n=%d: not sorted like slices.Sort", w, n)
			}
		}
	}
}

// TestTokenSeq checks the packed accessors against a plain slice, and the
// single-insert word shift against slices.Insert, at every width.
func TestTokenSeq(t *testing.T) {
	r := rng(32)
	for w := uint(8); w <= 38; w++ {
		tt := min(6, max(0, int(w)-26))
		cfg := Config{T: tt, D: 1, P: int(w) - 6 - tt}
		if cfg.tokenWidth() != w {
			t.Fatalf("%+v has width %d, want %d", cfg, cfg.tokenWidth(), w)
		}
		h, err := NewHybrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for len(want) < min(300, cfg.breakEven()-1) {
			x := r.Uint64()
			if len(want)%3 == 0 {
				x &= 1<<uint(cfg.tokenV()+2) - 1 // small tokens: inserts at the front too
			}
			tok := TokenFromHash(x, cfg.tokenV())
			i, found := slices.BinarySearch(want, tok)
			if changed := h.AddHash(x); changed == found {
				t.Fatalf("w=%d: AddHash changed=%v for a token found=%v", w, changed, found)
			}
			if !found {
				want = slices.Insert(want, i, tok)
			}
			s := h.tokens()
			if s.len() != len(want) {
				t.Fatalf("w=%d: %d tokens, want %d", w, s.n, len(want))
			}
			for j, y := range want {
				if s.at(j) != y {
					t.Fatalf("w=%d: token %d of %d is %#x, want %#x", w, j, s.n, s.at(j), y)
				}
			}
			for bit := uint(s.n) * w; bit < 64*uint(len(s.words)); bit++ {
				if s.words[bit/64]>>(bit%64)&1 != 0 {
					t.Fatalf("w=%d: bit %d set past the %d tokens", w, bit, s.n)
				}
			}
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

// TestHybridMergeOfKnownTokensDoesNotAllocate: a replica re-sending what a
// key already holds — all of it, or a part — is compared, not copied.
func TestHybridMergeOfKnownTokensDoesNotAllocate(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 12}
	all, _ := NewHybrid(cfg)
	part, _ := NewHybrid(cfg)
	r := rng(78)
	for i := 0; i < 2000; i++ {
		x := r.Uint64()
		all.AddHash(x)
		if i%2 == 0 {
			part.AddHash(x)
		}
	}
	before, _ := all.MarshalBinary()
	for name, other := range map[string]*Hybrid{"the same tokens": all.Clone(), "half of them": part} {
		if n := testing.AllocsPerRun(20, func() {
			if err := all.Merge(other); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("merging %s allocates %v times", name, n)
		}
	}
	if after, _ := all.MarshalBinary(); !bytes.Equal(before, after) {
		t.Error("merging known tokens changed the sketch")
	}
	// The other way round the half gains the rest, once.
	if err := part.Merge(all); err != nil {
		t.Fatal(err)
	}
	if got, _ := part.MarshalBinary(); !bytes.Equal(got, before) {
		t.Error("a part merged with the whole is not the whole")
	}
}

func TestHybridFootprintIsTight(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 12}
	for _, n := range []int{1, 16, 100, 1000, 3000, 5000} {
		h, _ := NewHybrid(cfg)
		r := rng(int64(n))
		for i := 0; i < n; i++ {
			h.AddHash(r.Uint64())
		}
		payload := (20*h.Tokens() + 7) / 8
		if payload != h.SizeBytes() {
			t.Errorf("n=%d: SizeBytes %d for %d 20-bit tokens", n, h.SizeBytes(), h.Tokens())
		}
		if got := h.MemoryFootprint(); got < payload+hybridOverhead || got > payload+payload/7+hybridOverhead+8 {
			t.Errorf("n=%d: footprint %d bytes for %d payload bytes", n, got, payload)
		}
		if n == 100 && h.MemoryFootprint()-hybridOverhead > 256 {
			t.Errorf("100 tokens hold %d bytes of token heap, want <= 256", h.MemoryFootprint()-hybridOverhead)
		}
		// A bulk load, a clone and a decoded blob are as tight.
		blob, _ := h.MarshalBinary()
		back, err := HybridFromBinary(blob)
		if err != nil {
			t.Fatal(err)
		}
		for name, other := range map[string]*Hybrid{"clone": h.Clone(), "decoded": back} {
			if got := other.MemoryFootprint(); got > h.MemoryFootprint() {
				t.Errorf("n=%d: %s holds %d bytes, the original %d", n, name, got, h.MemoryFootprint())
			}
		}
	}
	if unsafe.Sizeof(Hybrid{}) > hybridOverhead {
		t.Errorf("Hybrid is %d bytes, hybridOverhead says %d", unsafe.Sizeof(Hybrid{}), hybridOverhead)
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
