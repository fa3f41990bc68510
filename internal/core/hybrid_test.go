package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// refBits writes the body of a sparse blob as the format's description
// says, a bit at a time: the reference the real encoder is checked against.
// The tokens are taken in the order given, so that a test can also build
// what a decoder must refuse.
func refBits(cfg Config, tokens []uint64) []bool {
	v, n := cfg.tokenV(), len(tokens)
	if n == 0 {
		return nil
	}
	l := 0
	for n<<uint(l+1) <= 1<<uint(v) {
		l++
	}
	out := make([]bool, n+1<<uint(v-l))
	for i, x := range tokens {
		out[int(x>>6>>uint(l))+i] = true
	}
	for _, x := range tokens {
		for b := 0; b < l; b++ {
			out = append(out, x>>6>>uint(b)&1 != 0)
		}
	}
	for _, x := range tokens {
		out = append(out, make([]bool, x&63)...)
		out = append(out, true)
	}
	return out
}

// tokenBlob builds a sparse blob by hand from refBits.
func tokenBlob(cfg Config, tokens ...uint64) []byte {
	return rawTokenBlob(cfg, len(tokens), refBits(cfg, tokens))
}

// rawTokenBlob is a sparse blob that claims n tokens over any body bits.
func rawTokenBlob(cfg Config, n int, body []bool) []byte {
	out := append([]byte(tokenBlobMagic), byte(cfg.T), byte(cfg.D), byte(cfg.P))
	out = binary.AppendUvarint(out, uint64(n))
	packed := make([]byte, (len(body)+7)/8)
	for i, set := range body {
		if set {
			packed[i/8] |= 1 << uint(i%8)
		}
	}
	return append(out, packed...)
}

// tokensOf returns the sorted distinct tokens of the hashes at c's v.
func (c Config) tokensOf(hashes []uint64) []uint64 {
	tokens := make([]uint64, len(hashes))
	for i, x := range hashes {
		tokens[i] = TokenFromHash(x, c.tokenV())
	}
	slices.Sort(tokens)
	return slices.Compact(tokens)
}

// staysSparse is the mode the token set of the hashes must be in: sparse
// while the reference encoding is smaller than the dense register array.
func (c Config) staysSparse(hashes []uint64) bool {
	return c.sparseTokens(c.tokensOf(hashes))
}

// sparseTokens is staysSparse for tokens that are sorted and distinct.
func (c Config) sparseTokens(tokens []uint64) bool {
	return (len(refBits(c, tokens))+7)/8 < c.SizeBytes()
}

// uniteSorted returns the sorted union of two sorted lists of distinct
// tokens.
func uniteSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// wantBytes is what a hybrid fed the hashes must serialize to, whatever the
// route: the reference encoding of their tokens, or past break-even the
// dense sketch.
func (c Config) wantBytes(hashes []uint64) []byte {
	if c.staysSparse(hashes) {
		return tokenBlob(c, c.tokensOf(hashes)...)
	}
	dense := MustNew(c)
	for _, x := range hashes {
		dense.AddHash(x)
	}
	out, _ := dense.MarshalBinary()
	return out
}

// breakEven is about the number of tokens at which the sparse mode ends: the
// first n whose encoding is no smaller than the dense array if the NLZs
// average one, as those of few random hashes do. (Near 2^v tokens the small
// NLZs run out, the average rises and the sparse mode ends a little sooner.)
func (c Config) breakEven() int {
	for n := 1; ; n++ {
		if lay := layoutTokens(c.tokenV(), n); c.pastBreakEven(lay.size(n, uint(n))) {
			return n
		}
	}
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
	n, tokens := 0, 0
	for h.IsSparse() {
		tokens = h.Tokens()
		if h.SizeBytes() >= cfg.SizeBytes() {
			t.Fatalf("sparse at %d bytes, the dense array is %d", h.SizeBytes(), cfg.SizeBytes())
		}
		h.AddHash(r.Uint64())
		n++
		if n > 100000 {
			t.Fatal("never densified")
		}
	}
	// Past 2^v = 1024 tokens l is 0 and a token costs two bits and its NLZ:
	// 7168 bits hold 1024 bucket zeros and about 1700 tokens, which takes
	// some 2500 random hashes (the likely tokens are soon all known).
	if tokens < 1500 || tokens > 1900 || n < tokens {
		t.Errorf("densified after %d inserts at %d tokens; expected ≈ 1700 tokens", n, tokens)
	}
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
	// An empty one is its header and a zero count.
	empty, _ := NewHybrid(cfg)
	data, _ = empty.MarshalBinary()
	if string(data) != "ELT3\x02\x14\x08\x00" {
		t.Errorf("empty hybrid serializes as %q", data)
	}
	if err := h3.UnmarshalBinary(data); err != nil || !h3.IsSparse() || !h3.IsEmpty() || h3.Config() != cfg {
		t.Errorf("empty round trip: %v, sparse=%v empty=%v", err, h3.IsSparse(), h3.IsEmpty())
	}
	// Corrupt payloads.
	if err := new(Hybrid).UnmarshalBinary([]byte{'X'}); err == nil {
		t.Error("accepted bad magic")
	}
	if err := new(Hybrid).UnmarshalBinary([]byte("ELT3\x02\x14")); err == nil {
		t.Error("accepted a truncated token header")
	}
	if err := new(Hybrid).UnmarshalBinary([]byte("ELT3\x02\x14\x08")); err == nil {
		t.Error("accepted a token blob without a count")
	}
}

// rejectedTokenBlobs is every way a sparse blob can be wrong, by name: the
// decoding test's table and the fuzzer's seeds.
func rejectedTokenBlobs() map[string][]byte {
	cfg := Config{T: 2, D: 20, P: 9} // v = 11; three tokens have l = 9
	ok := []uint64{1<<6 | 3, 2<<6 | 0, 2<<6 | 1}
	body := refBits(cfg, ok) // 3+4 quotient bits, 27 remainder bits, 4+1+2 NLZ bits
	with := func(edit func(b []bool) []bool) []byte {
		return rawTokenBlob(cfg, len(ok), edit(slices.Clone(body)))
	}
	set := func(bit int, to bool) func([]bool) []bool {
		return func(b []bool) []bool { b[bit] = to; return b }
	}
	long := tokenBlob(cfg, ok...)
	long = slices.Insert(long, tokenBlobHeader, 0x83) // 3 as the two-byte varint 0x83 0x00
	long[tokenBlobHeader+1] = 0
	return map[string][]byte{
		"remainders descend in a bucket":  tokenBlob(cfg, 2<<6, 1<<6),
		"duplicate":                       tokenBlob(cfg, 1<<6, 1<<6),
		"zero counts descend in a prefix": tokenBlob(cfg, 2<<6|1, 2<<6|0),
		"impossible zero count":           tokenBlob(cfg, 1<<6|54),
		"one quotient bit too many":       with(set(3, true)),
		"one quotient bit too few":        with(set(2, false)),
		"quotient out of range":           with(func(b []bool) []bool { b[2], b[6] = false, true; return b }),
		"one zero count too many":         with(func(b []bool) []bool { return append(b, false, true) }),
		"one zero count too few":          with(func(b []bool) []bool { return b[:len(b)-2] }),
		"body ends inside the remainders": with(func(b []bool) []bool { return append(b[:20], true) }),
		"padding bit":                     with(func(b []bool) []bool { return append(b, false, false, true) }),
		"trailing zero byte":              append(tokenBlob(cfg, ok...), 0),
		"truncated":                       tokenBlob(cfg, ok...)[:tokenBlobHeader+1+4],
		"count longer than it need be":    long,
		"count without a body":            rawTokenBlob(cfg, 1<<40, nil),
		"count past four to a byte":       rawTokenBlob(cfg, 400, body),
		"count the body cannot hold":      rawTokenBlob(cfg, 20, body),
		"empty with a body":               rawTokenBlob(cfg, 0, []bool{true}),
		"invalid config":                  tokenBlob(Config{T: 9, D: 20, P: 8}),
		"ELT2, 20-bit tokens":             append([]byte("ELT2\x02\x14\x0c"), 0x43, 0, 0x08),
		"ELT1, v = 26 tokens":             append([]byte("ELT1\x02\x14\x09"), 0x43, 0, 0, 0),
		"ET v1, empty":                    {'E', 'T', 1, 26, 0},
		"ET v1, 50 tokens at v = 26":      retiredETBlob(),
	}
}

// retiredETBlob is 50 tokens in the deleted "ET" layout: magic, version 1,
// v = 26, the count as a uvarint, then the ascending tokens at v+6 = 32
// bits each, which is one little-endian word a token.
func retiredETBlob() []byte {
	out := []byte{'E', 'T', 1, 26, 50}
	for i := uint32(1); i <= 50; i++ {
		out = binary.LittleEndian.AppendUint32(out, i<<6|i%3)
	}
	return out
}

// The "ET" token format went with its only decoder. What is left — FromBinary
// (which exaloglog.FromBinary is) and Hybrid.UnmarshalBinary — refuses it at
// the magic, before a config or a count is read out of it, and leaves the
// receiver alone. The five-byte empty blob, too short for any header, is
// refused with the other rejectedTokenBlobs.
func TestRetiredETBlobRefused(t *testing.T) {
	blob := retiredETBlob()
	if _, err := FromBinary(blob); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("FromBinary(ET blob) = %v, want a bad-magic error", err)
	}
	h, _ := NewHybrid(Config{T: 2, D: 20, P: 8})
	h.AddHash(1)
	if err := h.UnmarshalBinary(blob); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("Hybrid.UnmarshalBinary(ET blob) = %v, want a bad-magic error", err)
	}
	if h.Tokens() != 1 {
		t.Errorf("a refused blob changed the receiver: %d tokens", h.Tokens())
	}
}

func TestHybridTokenBlobDecoding(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 9}
	ok := tokenBlob(cfg, 1<<6|3, 2<<6|0, 2<<6|1)
	if len(ok) != 7+1+6 { // 41 bits
		t.Fatalf("hand-built blob is %d bytes", len(ok))
	}
	h := new(Hybrid)
	if err := h.UnmarshalBinary(ok); err != nil {
		t.Fatal(err)
	}
	if !h.IsSparse() || h.Tokens() != 3 {
		t.Fatalf("decoded sparse=%v tokens=%d", h.IsSparse(), h.Tokens())
	}
	if back, _ := h.MarshalBinary(); !bytes.Equal(back, ok) {
		t.Error("canonical blob did not round-trip byte for byte")
	}
	for name, bad := range rejectedTokenBlobs() {
		if err := new(Hybrid).UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The largest zero count a token can carry is 64-v.
	if err := new(Hybrid).UnmarshalBinary(tokenBlob(cfg, 1<<6|53)); err != nil {
		t.Errorf("nlz = 64-v rejected: %v", err)
	}
	// The widest tokens there are decode like any other.
	wide := Config{T: 6, D: 2, P: 26}
	if err := h.UnmarshalBinary(tokenBlob(wide, 5<<6|1, 1<<37|7<<6)); err != nil || h.Tokens() != 2 {
		t.Errorf("38-bit tokens: %v", err)
	}
	// At or past break-even the blob is accepted and densified, and the
	// result is what adding the same tokens one by one gives.
	var many []uint64
	ref, _ := NewHybrid(cfg)
	for i := 0; i < 3000; i++ {
		x := uint64(i/2+1)<<6 | uint64(i%2*(i%30+1))
		many = append(many, x)
		ref.AddHash(HashFromToken(x, cfg.tokenV()))
	}
	big := new(Hybrid)
	if err := big.UnmarshalBinary(tokenBlob(cfg, many...)); err != nil {
		t.Fatal(err)
	}
	if big.IsSparse() || ref.IsSparse() {
		t.Fatalf("3000 tokens at break-even ≈ %d stayed sparse", cfg.breakEven())
	}
	a, _ := big.MarshalBinary()
	b, _ := ref.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Error("over-break-even blob densified to different registers")
	}
}

// addAll feeds hashes to h: one by one where that is affordable, else in
// bulk with a few single adds in between (a single insert moves half the
// encoding, and the widest configurations hold hundreds of thousands).
func addAll(h *Hybrid, hashes []uint64) {
	if h.Config().breakEven() <= 1<<14 {
		for _, x := range hashes {
			h.AddHash(x)
		}
		return
	}
	for len(hashes) > 0 {
		h.AddHash(hashes[0])
		k := min(len(hashes), max(20000, h.Config().breakEven()/4))
		h.AddHashes(hashes[1:k])
		hashes = hashes[k:]
	}
}

// TestHybridParityAcrossBreakEven is the contract the store and the cluster
// oracle rest on, checked on seeded streams that cross break-even: at every
// checkpoint the hybrid's estimate is the dense estimate to the bit, its
// bytes are the reference encoding of its token set — so they do not depend
// on insertion order or on whether state arrived by add or by merge — its
// mode is the one the reference encoding's size implies, and merging in all
// four mode pairs gives the dense merge. The configurations cover p+t from
// 9 to 25, among them the default.
//
// The routes other than one bulk add grow with the stream, a stretch
// between two checkpoints at a time, so each checkpoint costs the stretch
// and not the whole prefix: in order, each stretch reversed, every third
// element merged with the rest, and chunked bulk adds. The dense sketch
// fed in order is the reference past break-even.
func TestHybridParityAcrossBreakEven(t *testing.T) {
	for _, cfg := range []Config{
		{T: 2, D: 20, P: 8}, {T: 2, D: 20, P: 12}, {T: 1, D: 9, P: 10}, {T: 0, D: 2, P: 9},
		{T: 6, D: 4, P: 12}, // p+t = 18
		{T: 6, D: 0, P: 19}, // p+t = 25, break-even near 600 000 tokens
	} {
		r := rng(int64(900 + cfg.P))
		n := 2 * cfg.breakEven()
		checkpoints, chunk := 40, 107
		if n > 1<<16 {
			if testing.Short() {
				continue
			}
			checkpoints, chunk = 3, n/12+1
		}
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = r.Uint64()
			if i%7 == 3 {
				hashes[i] = hashes[i/2] // duplicates
			}
		}
		dense := MustNew(cfg)
		forward, _ := NewHybrid(cfg)
		backward, _ := NewHybrid(cfg)
		left, _ := NewHybrid(cfg) // every third element; right has the rest
		right, _ := NewHybrid(cfg)
		chunks, _ := NewHybrid(cfg)
		var tokens []uint64 // the prefix's, sorted and distinct
		step := n/checkpoints + 1
		for done := 0; done < n; {
			from := done
			done = min(done+step, n)
			stretch := hashes[from:done]
			for _, x := range stretch {
				dense.AddHash(x)
			}
			if forward.IsSparse() {
				addAll(forward, stretch)
			} else {
				for _, x := range stretch {
					before := forward.sketch().StateChanges()
					if changed := forward.AddHash(x); changed != (forward.sketch().StateChanges() != before) {
						t.Fatalf("%+v: dense-mode changed bit disagrees", cfg)
					}
				}
			}
			tokens = uniteSorted(tokens, cfg.tokensOf(stretch))
			sparse := cfg.sparseTokens(tokens)
			if got, want := forward.Estimate(), dense.Estimate(); got != want {
				t.Fatalf("%+v: after %d adds (sparse=%v) estimate %v, dense %v", cfg, done, forward.IsSparse(), got, want)
			}
			if forward.IsSparse() != sparse {
				t.Fatalf("%+v: after %d adds sparse=%v with %d tokens", cfg, done, forward.IsSparse(), forward.Tokens())
			}
			// Same elements, another order, and split over two parts that merge.
			reversed := slices.Clone(stretch)
			slices.Reverse(reversed)
			addAll(backward, reversed)
			var thirds, rest []uint64
			for j, x := range stretch {
				if (from+j)%3 == 0 {
					thirds = append(thirds, x)
				} else {
					rest = append(rest, x)
				}
			}
			addAll(left, thirds)
			addAll(right, rest)
			merged := left.Clone()
			if err := merged.Merge(right); err != nil {
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
			for j := from; j < done; j += chunk {
				chunks.AddHash(hashes[j])
				chunks.AddHashes(hashes[j+1 : min(j+chunk, done)])
			}
			want, _ := dense.MarshalBinary()
			if sparse {
				want = tokenBlob(cfg, tokens...)
			}
			for name, other := range map[string]*Hybrid{"in order": forward, "stretches reversed": backward, "merge of two parts": merged, "one bulk add": bulk, "chunked bulk adds": chunks} {
				if got, _ := other.MarshalBinary(); !bytes.Equal(got, want) {
					t.Fatalf("%+v: after %d adds, %s does not serialize to the reference encoding (sparse %v vs %v)", cfg, done, name, other.IsSparse(), forward.IsSparse())
				}
			}
			back := new(Hybrid)
			if err := back.UnmarshalBinary(want); err != nil {
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

		// All four mode pairs against the dense merge: a sparse and a dense
		// sketch on either side, each pair merging a clone of its left one.
		small, big := cfg.breakEven()/3, 3*cfg.breakEven()
		type side struct {
			h      *Hybrid
			d      *Sketch
			tokens []uint64
		}
		build := func(size int) side {
			s := side{d: MustNew(cfg)}
			s.h, _ = NewHybrid(cfg)
			hashes := make([]uint64, size)
			for i := range hashes {
				hashes[i] = r.Uint64()
				s.d.AddHash(hashes[i])
			}
			addAll(s.h, hashes)
			if s.h.IsSparse() != (size == small) {
				t.Fatalf("%+v: %d hashes are sparse=%v", cfg, size, s.h.IsSparse())
			}
			s.tokens = cfg.tokensOf(hashes)
			return s
		}
		as := map[int]side{small: build(small), big: build(big)}
		bs := map[int]side{small: build(small), big: build(big)}
		for _, sizes := range [][2]int{{small, small}, {small, big}, {big, small}, {big, big}} {
			a, b := as[sizes[0]].h.Clone(), bs[sizes[1]].h
			da := as[sizes[0]].d.Clone()
			bBefore, _ := b.MarshalBinary()
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			if err := da.Merge(bs[sizes[1]].d); err != nil {
				t.Fatal(err)
			}
			if a.Estimate() != da.Estimate() || string(a.ToSketch().RegisterBytes()) != string(da.RegisterBytes()) {
				t.Fatalf("%+v: merge of sizes %v differs from the dense merge", cfg, sizes)
			}
			if a.IsSparse() != cfg.sparseTokens(uniteSorted(as[sizes[0]].tokens, bs[sizes[1]].tokens)) {
				t.Fatalf("%+v: merge of sizes %v ended sparse=%v", cfg, sizes, a.IsSparse())
			}
			if bAfter, _ := b.MarshalBinary(); !bytes.Equal(bBefore, bAfter) {
				t.Fatalf("%+v: merge modified its source", cfg)
			}
		}
	}
}

// TestHybridCanonicalBytes: one token set, one byte string, however it was
// put together — single inserts in random order (those of the smaller sizes
// first), one bulk add, a bulk add and single inserts on either side of it,
// a merge of two halves in either direction — and that string is the
// reference encoding. Checked with every number of tokens at which the
// remainder width l changes (a power of two and the count after it), from
// one token to past break-even, for p+t of 10, 14, 18 and 22.
func TestHybridCanonicalBytes(t *testing.T) {
	for _, cfg := range []Config{{T: 2, D: 20, P: 8}, {T: 2, D: 20, P: 12}, {T: 6, D: 0, P: 12}, {T: 6, D: 0, P: 16}} {
		if testing.Short() && cfg.tokenV() > 14 {
			continue
		}
		r := rng(int64(300 + cfg.tokenV()))
		var hashes []uint64
		seen := map[uint64]bool{}
		grow := func(tokens int) { // hashes that make exactly that many tokens
			for len(seen) < tokens {
				x := r.Uint64()
				hashes = append(hashes, x)
				seen[TokenFromHash(x, cfg.tokenV())] = true
				if len(hashes)%5 == 0 {
					hashes = append(hashes, hashes[r.Intn(len(hashes))]) // a known element
				}
			}
		}
		singles, _ := NewHybrid(cfg)
		fed := 0 // the hashes singles holds
		var sizes []int
		for n := 1; n < cfg.breakEven(); n *= 2 {
			sizes = append(sizes, n, n+1)
		}
		sizes = append(sizes, cfg.breakEven()*5/4)
		for _, tokens := range sizes {
			grow(tokens)
			want := cfg.wantBytes(hashes)
			if sparse := cfg.staysSparse(hashes); sparse != (tokens < cfg.breakEven()) {
				t.Fatalf("%+v: the reference says %d tokens are sparse=%v, break-even ≈ %d", cfg, tokens, sparse, cfg.breakEven())
			}
			shuffled := slices.Clone(hashes)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			cut := r.Intn(len(shuffled) + 1)
			// Single inserts carry over from one size to the next: only the
			// hashes grown since go in, in random order.
			fresh := slices.Clone(hashes[fed:])
			r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
			for _, x := range fresh {
				singles.AddHash(x)
			}
			fed = len(hashes)
			built := map[string]*Hybrid{"single inserts": singles}
			for _, name := range []string{"one bulk add", "bulk then singles", "singles then bulk", "merge a<-b", "merge b<-a"} {
				built[name], _ = NewHybrid(cfg)
			}
			built["one bulk add"].AddHashes(shuffled)
			built["bulk then singles"].AddHashes(shuffled[:cut])
			for _, x := range shuffled[cut:] {
				built["bulk then singles"].AddHash(x)
			}
			for _, x := range shuffled[:cut] {
				built["singles then bulk"].AddHash(x)
			}
			built["singles then bulk"].AddHashes(shuffled[cut:])
			other, _ := NewHybrid(cfg)
			built["merge a<-b"].AddHashes(shuffled[:cut])
			other.AddHashes(shuffled[cut:])
			built["merge b<-a"].AddHashes(shuffled[cut:])
			if err := built["merge b<-a"].Merge(built["merge a<-b"]); err != nil {
				t.Fatal(err)
			}
			if err := built["merge a<-b"].Merge(other); err != nil {
				t.Fatal(err)
			}
			for name, h := range built {
				if got, _ := h.MarshalBinary(); !bytes.Equal(got, want) {
					t.Fatalf("%+v, %d tokens, cut at %d of %d: %s does not give the reference encoding (sparse=%v, %d tokens)",
						cfg, tokens, cut, len(shuffled), name, h.IsSparse(), h.Tokens())
				}
				if h.IsSparse() && h.Tokens() != tokens {
					t.Fatalf("%+v: %s holds %d tokens, want %d", cfg, name, h.Tokens(), tokens)
				}
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
		for _, n := range []int{300, 200000} { // sparse and dense at both precisions
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

// TestReplayTokensIsAlgorithm2: replaying a sorted batch of tokens into
// registers that hold anything Algorithm 2 can leave — nothing, or the
// state of earlier hashes — gives the registers updateRegister gives
// applied to the batch's hashes one at a time, for the paper's (t, d)
// configurations, d = 0 included. At p = 4 a batch piles many tokens on a
// register, updates far below its largest among them.
func TestReplayTokensIsAlgorithm2(t *testing.T) {
	r := rng(9)
	for _, td := range paperConfigs {
		cfg := Config{T: td[0], D: td[1], P: 4}
		for _, sizes := range [][2]int{{0, 1}, {0, 40}, {3, 5}, {40, 40}, {200, 2000}} {
			replayed := MustNew(cfg)
			for range sizes[0] {
				replayed.AddHash(r.Uint64())
			}
			ref := replayed.Clone()
			hashes := make([]uint64, sizes[1])
			for i := range hashes {
				hashes[i] = r.Uint64()
				ref.AddHash(hashes[i])
			}
			replayed.addTokens(cfg.sortedTokens(hashes, make([]uint64, 2*len(hashes))))
			if string(replayed.RegisterBytes()) != string(ref.RegisterBytes()) {
				t.Errorf("%+v, %d hashes over %d: the replayed registers differ from Algorithm 2's", cfg, sizes[1], sizes[0])
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

// TestTokenEncoding checks, for every v, the single insert — search, the
// three shifts, the re-encoding when l changes, growth — against a plain
// sorted slice: after each one the stream reads back exactly the slice, the
// words are the reference encoding and nothing is set past it.
func TestTokenEncoding(t *testing.T) {
	r := rng(32)
	for v := 2; v <= 32; v++ {
		tt := min(6, max(0, v-26))
		cfg := Config{T: tt, D: 30, P: v - tt} // d = 30: the sparse mode of the smallest lasts a few tokens
		h, err := NewHybrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for len(want) < 300 {
			x := r.Uint64()
			switch len(want) % 3 {
			case 0:
				x &= 1<<uint(v+2) - 1 // small prefixes and long zero runs: inserts at the front too
			case 1:
				x = x&^(1<<uint(v)-1) | HashFromToken(want[r.Intn(len(want))], v)&(1<<uint(v)-1) // a known prefix
			}
			tok := TokenFromHash(x, v)
			i, found := slices.BinarySearch(want, tok)
			if !found && !cfg.staysSparse(append([]uint64{x}, hashesOf(want, v)...)) {
				break
			}
			if changed := h.AddHash(x); changed == found {
				t.Fatalf("v=%d: AddHash changed=%v for a token found=%v", v, changed, found)
			}
			if !found {
				want = slices.Insert(want, i, tok)
			}
			ts := h.tokens().stream()
			for j, y := range want {
				if got := ts.head(); got != y {
					t.Fatalf("v=%d: token %d of %d is %#x, want %#x", v, j, len(want), got, y)
				}
				ts.i++
			}
			if ts.head() != endOfTokens || h.Tokens() != len(want) {
				t.Fatalf("v=%d: %d tokens and more after them, want %d", v, h.Tokens(), len(want))
			}
			ref := refBits(cfg, want)
			if int(h.used) != len(ref) {
				t.Fatalf("v=%d: %d tokens take %d bits, the reference %d", v, len(want), h.used, len(ref))
			}
			words := h.tokenWords()
			for bit := 0; bit < 64*len(words); bit++ {
				if got := words[bit/64]>>uint(bit%64)&1 != 0; got != (bit < len(ref) && ref[bit]) {
					t.Fatalf("v=%d: bit %d of %d tokens is %v", v, bit, len(want), got)
				}
			}
		}
		if len(want) < 3 {
			t.Fatalf("v=%d: only %d tokens fit", v, len(want))
		}
	}
}

// hashesOf returns a hash for each token.
func hashesOf(tokens []uint64, v int) []uint64 {
	out := make([]uint64, len(tokens))
	for i, x := range tokens {
		out[i] = HashFromToken(x, v)
	}
	return out
}

func TestMoveBits(t *testing.T) {
	r := rng(33)
	for trial := 0; trial < 20000; trial++ {
		words := make([]uint64, 1+r.Intn(6))
		for i := range words {
			words[i] = r.Uint64()
		}
		size := uint(64 * len(words))
		from := uint(r.Intn(int(size)))
		to := from + uint(r.Intn(int(size-from)))
		by := 1 + uint(r.Intn(int(size-to)+1))
		if to+by > size {
			continue
		}
		bit := func(w []uint64, i uint) uint64 { return w[i/64] >> (i % 64) & 1 }
		before := slices.Clone(words)
		moveBits(words, from, to, by)
		for i := uint(0); i < size; i++ {
			want := bit(before, i)
			if i >= from+by && i < to+by {
				want = bit(before, i-by)
			}
			if i >= from && i < from+by && i < to+by && from < to {
				continue // left to the caller
			}
			if bit(words, i) != want {
				t.Fatalf("moveBits(%d words, %d, %d, %d): bit %d is %d", len(words), from, to, by, i, bit(words, i))
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
// key already holds — all of it, or a part — is compared, not copied, and
// so is a batch of known elements.
func TestHybridMergeOfKnownTokensDoesNotAllocate(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 12}
	all, _ := NewHybrid(cfg)
	part, _ := NewHybrid(cfg)
	r := rng(78)
	var hashes []uint64
	for i := 0; i < 2000; i++ {
		x := r.Uint64()
		hashes = append(hashes, x)
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
		}); n != 0 && !raceEnabled {
			t.Errorf("merging %s allocates %v times", name, n)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if all.AddHash(hashes[7]) || all.AddHashes(hashes[:500]) {
			t.Fatal("known elements changed the sketch")
		}
	}); n != 0 && !raceEnabled {
		t.Errorf("adding known elements allocates %v times", n)
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

// TestHybridFootprintIsTight: the encoding is as dense as the header
// comment says, and the heap holds it with a size class step of slack at
// the most, in the 24-byte struct.
func TestHybridFootprintIsTight(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 12}
	perToken := map[int]float64{100: 12, 1000: 8.5, 5000: 6}
	for _, n := range []int{1, 16, 100, 1000, 3000, 5000, 15000} {
		h, _ := NewHybrid(cfg)
		r := rng(int64(n))
		for h.Tokens() < n {
			h.AddHash(r.Uint64())
		}
		payload := h.SizeBytes()
		if payload != (len(refBits(cfg, collect(h)))+7)/8 {
			t.Errorf("n=%d: SizeBytes %d, the reference encoding is %d bits", n, payload, len(refBits(cfg, collect(h))))
		}
		if limit, ok := perToken[n]; ok && 8*float64(payload)/float64(n) > limit {
			t.Errorf("n=%d: %.2f bits per token, want <= %v", n, 8*float64(payload)/float64(n), limit)
		}
		// The widest step between two size classes, 4096 to 4864, is 19 %.
		if got := h.MemoryFootprint(); got < payload+hybridOverhead || got > payload+payload/5+hybridOverhead+8 {
			t.Errorf("n=%d: footprint %d bytes for %d payload bytes", n, got, payload)
		}
		if n == 100 && h.MemoryFootprint()-hybridOverhead > 160 {
			t.Errorf("100 tokens hold %d bytes of token heap, want <= 160", h.MemoryFootprint()-hybridOverhead)
		}
		// A bulk load, a clone and a decoded blob are as tight.
		blob, _ := h.MarshalBinary()
		back := new(Hybrid)
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		for name, other := range map[string]*Hybrid{"clone": h.Clone(), "decoded": back} {
			if got := other.MemoryFootprint(); got > h.MemoryFootprint() {
				t.Errorf("n=%d: %s holds %d bytes, the original %d", n, name, got, h.MemoryFootprint())
			}
		}
	}
	if unsafe.Sizeof(Hybrid{}) != hybridOverhead || hybridOverhead != 24 {
		t.Errorf("Hybrid is %d bytes, hybridOverhead says %d, the handle is 24", unsafe.Sizeof(Hybrid{}), hybridOverhead)
	}
}

// TestHybridHandleThroughEveryMode drives one Hybrid through every change
// of what its pointer holds — nothing, a token array that grows and is
// re-encoded, a dense sketch, and back — and after each step checks that
// the handle agrees with itself (the mode flag, the two accessors, the
// array's length) and that its bytes and estimate are those of ToSketch():
// for a configuration of its own, the reference encoding of every hash it
// was fed.
func TestHybridHandleThroughEveryMode(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 8}
	r := rng(2027)
	fresh := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = r.Uint64()
		}
		return out
	}
	hybridOf := func(c Config, hashes []uint64) *Hybrid {
		o, _ := NewHybrid(c)
		addAll(o, hashes)
		return o
	}
	blobOf := func(o *Hybrid) []byte {
		b, err := o.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// The state the steps move: the handle, its configuration, the hashes
	// it holds (nil once that is no longer a reference, after a merge of
	// another configuration), and its mode.
	h, _ := NewHybrid(cfg)
	want, fed, sparse := cfg, []uint64(nil), true
	check := func(step string) {
		t.Helper()
		if h.Config() != want || h.IsSparse() != sparse || (h.sketch() == nil) != sparse {
			t.Fatalf("%s: config %+v sparse=%v sketch=%v, want %+v sparse=%v", step, h.Config(), h.IsSparse(), h.sketch() != nil, want, sparse)
		}
		if words := h.tokenWords(); sparse {
			if len(words) != int(h.nwords) || uint(h.used) > 64*uint(len(words)) || (h.ptr == nil) != (h.n == 0) ||
				h.MemoryFootprint() != 8*len(words)+hybridOverhead {
				t.Fatalf("%s: %d tokens in %d bits of %d words (nwords %d, ptr set %v), footprint %d",
					step, h.n, h.used, len(words), h.nwords, h.ptr != nil, h.MemoryFootprint())
			}
		} else if words != nil || h.n != 0 || h.used != 0 || h.nwords != 0 {
			t.Fatalf("%s: a dense handle keeps %d token words, n=%d used=%d", step, len(words), h.n, h.used)
		}
		ref := h.ToSketch()
		refBlob, _ := ref.MarshalBinary()
		blob := blobOf(h)
		if h.Estimate() != ref.Estimate() {
			t.Fatalf("%s: estimate %v, ToSketch %v", step, h.Estimate(), ref.Estimate())
		}
		if !sparse && !bytes.Equal(blob, refBlob) {
			t.Fatalf("%s: dense bytes differ from ToSketch's", step)
		}
		if sparse {
			back := new(Hybrid)
			if err := back.UnmarshalBinary(blob); err != nil || !IsTokenBlob(blob) {
				t.Fatalf("%s: sparse blob of %d bytes: %v", step, len(blob), err)
			}
			if got, _ := back.ToSketch().MarshalBinary(); !bytes.Equal(got, refBlob) {
				t.Fatalf("%s: the sparse blob decodes to other registers than ToSketch's", step)
			}
		}
		if fed != nil && !bytes.Equal(blob, want.wantBytes(fed)) {
			t.Fatalf("%s: %d bytes, not the reference encoding of the %d hashes fed", step, len(blob), len(fed))
		}
	}

	steps := []struct {
		name string
		run  func(step string)
	}{
		{"empty", func(string) {}},
		{"single inserts across size classes and power-of-two re-encodes", func(step string) {
			sizes := map[uint32]bool{}
			for _, x := range fresh(300) {
				h.AddHash(x)
				fed = append(fed, x)
				sizes[h.nwords] = true
				check(step)
			}
			if len(sizes) < 5 || h.Tokens() < 256 {
				t.Fatalf("%s: %d tokens in %d array sizes, want past 256 tokens in 5 or more", step, h.Tokens(), len(sizes))
			}
		}},
		{"bulk AddHashes", func(string) {
			batch := fresh(100)
			h.AddHashes(batch)
			fed = append(fed, batch...)
		}},
		{"merge sparse into sparse", func(string) {
			other := fresh(40)
			h.Merge(hybridOf(cfg, other))
			fed = append(fed, other...)
		}},
		{"merge dense into sparse", func(string) {
			other := fresh(6000)
			h.Merge(hybridOf(cfg, other))
			fed, sparse = append(fed, other...), false
		}},
		{"ELT3 blob into a dense handle", func(string) {
			fed = fresh(50)
			if err := h.UnmarshalBinary(blobOf(hybridOf(cfg, fed))); err != nil {
				t.Fatal(err)
			}
			sparse = true
		}},
		{"single inserts to break-even", func(step string) {
			for h.IsSparse() {
				x := r.Uint64()
				h.AddHash(x)
				fed = append(fed, x)
				sparse = cfg.staysSparse(fed)
				check(step)
			}
		}},
		{"merge sparse into dense", func(string) {
			other := fresh(60)
			h.Merge(hybridOf(cfg, other))
			fed = append(fed, other...)
		}},
		{"dense blob into a dense handle", func(string) {
			fed = fresh(6000)
			if err := h.UnmarshalBinary(blobOf(hybridOf(cfg, fed))); err != nil {
				t.Fatal(err)
			}
		}},
		{"dense clone stays independent", func(step string) {
			c := h.Clone()
			before := blobOf(h)
			c.AddHashes(fresh(500))
			if !bytes.Equal(blobOf(h), before) || bytes.Equal(blobOf(c), before) || c.sketch() == h.sketch() {
				t.Fatalf("%s: a clone shares its registers with the original", step)
			}
		}},
		{"reset", func(string) {
			h.Reset()
			fed, sparse = nil, true
		}},
		{"sparse clone stays independent", func(step string) {
			fed = fresh(20)
			h.AddHashes(fed)
			c := h.Clone()
			c.AddHash(r.Uint64())
			more := fresh(3)
			for _, x := range more {
				h.AddHash(x)
			}
			fed = append(fed, more...)
			if c.Tokens() != 21 || &c.tokenWords()[0] == &h.tokenWords()[0] {
				t.Fatalf("%s: the clone holds %d tokens, want 21 in an array of its own", step, c.Tokens())
			}
		}},
		{"absorb batches made in a buffer: by single inserts, by a merge, dense", func(step string) {
			for _, n := range []int{3, 100, 6000} {
				more := fresh(n)
				var words [8]uint64
				batch, _ := MakeBatch(cfg, more, words[:])
				h.Absorb(&batch)
				fed = append(fed, more...)
				sparse = cfg.staysSparse(fed)
				check(step)
			}
		}},
		{"merge of another t is refused", func(step string) {
			before := blobOf(h)
			if err := h.Merge(hybridOf(Config{T: 1, D: 9, P: 8}, fresh(5))); err == nil || !bytes.Equal(blobOf(h), before) {
				t.Fatalf("%s: err %v, or the handle changed", step, err)
			}
		}},
		{"merge of a smaller precision", func(step string) {
			other := hybridOf(Config{T: 2, D: 20, P: 7}, fresh(30))
			reduced, err := MergeCompatible(h.ToSketch(), other.ToSketch())
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Merge(other); err != nil {
				t.Fatal(err)
			}
			if got, _ := reduced.MarshalBinary(); !bytes.Equal(blobOf(h), got) {
				t.Fatalf("%s: the merge is not the reduced union", step)
			}
			want, fed, sparse = reduced.Config(), nil, false
		}},
		{"reset keeps the configuration", func(string) {
			h.Reset()
			sparse = true
		}},
	}
	for _, s := range steps {
		s.run(s.name)
		check(s.name)
	}
}

// collect reads a sparse hybrid's tokens out.
func collect(h *Hybrid) []uint64 {
	ts := h.tokens().stream()
	var out []uint64
	for x := ts.head(); x != endOfTokens; x = ts.head() {
		out = append(out, x)
		ts.i++
	}
	return out
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
