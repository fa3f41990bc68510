package window

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
)

func testCfg() core.Config { return core.Config{T: 2, D: 20, P: 8} }

// TestSerializeRoundTrip: marshal → unmarshal preserves every
// observable — per-window estimates, Dropped, Latest, geometry — a
// second marshal is byte-identical, and AppendBinary appends the same
// bytes.
func TestSerializeRoundTrip(t *testing.T) {
	c := newCounter(t, 10, time.Second, 8)
	state := uint64(9)
	for s := 0; s < 10; s++ { // more slices than the ring: forces rotation
		ts := t0.Add(time.Duration(s) * time.Second)
		for i := 0; i < 200; i++ {
			c.AddHash(ts, hashing.SplitMix64(&state))
		}
	}
	c.AddHash(t0.Add(-time.Hour), 1) // one drop

	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !IsSerialized(blob) {
		t.Fatal("marshaled blob does not carry the window magic")
	}
	got, err := FromBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	now := c.Latest()
	for w := 1; w <= 8; w++ {
		win := time.Duration(w) * time.Second
		if a, b := c.Estimate(now, win), got.Estimate(now, win); a != b {
			t.Errorf("window %v: estimate %.2f != %.2f after round trip", win, a, b)
		}
	}
	if got.Dropped() != c.Dropped() {
		t.Errorf("Dropped %d != %d after round trip", got.Dropped(), c.Dropped())
	}
	if !got.Latest().Equal(c.Latest()) {
		t.Errorf("Latest %v != %v after round trip", got.Latest(), c.Latest())
	}
	if got.SliceDuration() != c.SliceDuration() || got.NumSlices() != c.NumSlices() || got.Config() != c.Config() {
		t.Error("geometry or configuration lost in round trip")
	}
	blob2, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Error("re-marshal is not byte-stable")
	}
	// AppendBinary writes the same bytes after what the buffer holds,
	// sliding each slice's length prefix in before the slice.
	prefix := []byte("prefix")
	if got := c.AppendBinary(prefix); !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], blob) {
		t.Error("AppendBinary does not append MarshalBinary's bytes")
	}
}

// TestSerializeEmptyCounter: a counter with no insertions round-trips
// (the configuration travels in the header, not in slice records).
func TestSerializeEmptyCounter(t *testing.T) {
	c := newCounter(t, 8, 250*time.Millisecond, 4)
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSlices() != 4 || got.SliceDuration() != 250*time.Millisecond {
		t.Errorf("empty round trip geometry %v×%d", got.SliceDuration(), got.NumSlices())
	}
	if !got.Latest().IsZero() || got.Dropped() != 0 {
		t.Error("empty round trip invented state")
	}
}

// TestFromBinaryRejects enumerates hostile blob shapes that must come
// back as errors, never panics or degenerate rings.
func TestFromBinaryRejects(t *testing.T) {
	c := newCounter(t, 8, time.Second, 4)
	c.AddUint64(t0, 1)
	good, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("ELX1"), good[4:]...),
		"plain sketch":    func() []byte { b, _ := c.Sketch(t0, time.Second).MarshalBinary(); return b }(),
		"truncated":       good[:len(good)-2],
		"header only":     good[:len(Magic)],
		"bad config":      append([]byte("ELW1\x63\x63\x63"), good[7:]...),
		"trailing":        append(append([]byte(nil), good...), 0),
		"zero slices":     {'E', 'L', 'W', '1', 2, 20, 8, 1, 0, 0, 0, 0},
		"absurd slices":   {'E', 'L', 'W', '1', 2, 20, 8, 1, 0xff, 0xff, 0x7f, 0, 0, 0},
		"live over ring":  {'E', 'L', 'W', '1', 2, 20, 8, 1, 4, 0, 0, 9},
		"zero slice dur":  {'E', 'L', 'W', '1', 2, 20, 8, 0, 4, 0, 0, 0},
		"huge slice blob": {'E', 'L', 'W', '1', 2, 20, 8, 1, 4, 0, 0, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"ELC1 ring":       append([]byte("ELC1"), good...),
		// A slice index past what any representable timestamp can produce
		// would poison maxIndex so every future real add counts as
		// dropped; same for a latest timestamp with the top bit set.
		"huge slice index": {'E', 'L', 'W', '1', 2, 20, 8, 1, 4, 0, 0, 1,
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"huge latest": {'E', 'L', 'W', '1', 2, 20, 8, 1, 4, 0,
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0},
	}
	for name, blob := range refusedSlices(t) {
		cases[name] = blob
	}
	for name, blob := range cases {
		if got, err := FromBinary(blob); err == nil {
			t.Errorf("%s blob accepted: %+v", name, got)
		}
	}
}

// sliceBlob is the blob of one slice holding n elements: "ELT3" tokens
// below break-even, the dense core format above.
func sliceBlob(tb testing.TB, cfg core.Config, n int) []byte {
	tb.Helper()
	h, err := core.NewHybrid(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		h.AddHash(hashing.Wy64Uint64(uint64(i), 0))
	}
	blob, err := h.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// ringOf assembles by hand a 4-slice "ELW1" ring of testCfg whose slices 0,
// 1, … carry the given blobs, whatever they are.
func ringOf(slices ...[]byte) []byte {
	ring := append([]byte(Magic), 2, 20, 8, 1, 4, 0, 0, byte(len(slices)))
	for i, blob := range slices {
		ring = binary.AppendUvarint(append(ring, byte(i)), uint64(len(blob)))
		ring = append(ring, blob...)
	}
	return ring
}

// refusedSlices are rings whose one slice is not a core.Hybrid blob of the
// ring's configuration as it is: one of another t, d, p, and one inside the
// generic codec's "ELC1" container.
func refusedSlices(tb testing.TB) map[string][]byte {
	return map[string][]byte{
		"foreign slice": ringOf(sliceBlob(tb, core.Config{T: 2, D: 20, P: 9}, 3)),
		"ELC1 slice":    ringOf(append([]byte("ELC1"), sliceBlob(tb, testCfg(), 3)...)),
	}
}

// FuzzWindowDecode mirrors the cluster codecs' fuzz targets: no input
// may panic the decoder, and anything it accepts must re-encode to a
// byte-stable, re-decodable form — two nodes must never disagree about
// one serialized window.
func FuzzWindowDecode(f *testing.F) {
	c, _ := New(testCfg(), time.Second, 4)
	c.AddUint64(t0, 7)
	c.AddUint64(t0.Add(time.Second), 8)
	if blob, err := c.MarshalBinary(); err == nil {
		f.Add(blob)
	}
	f.Add([]byte("ELW1"))
	f.Add([]byte("ELW1\x02\x14\x08\x01\x04\x00\x00\x00"))
	f.Add([]byte{})
	// Rings of token slices, of dense slices and of both; then the refused.
	tokens, dense := sliceBlob(f, testCfg(), 3), sliceBlob(f, testCfg(), 20000)
	f.Add(ringOf(tokens, tokens))
	f.Add(ringOf(dense, dense))
	f.Add(ringOf(tokens, dense))
	f.Add(append([]byte("ELC1"), ringOf(tokens)...))
	for _, ring := range refusedSlices(f) {
		f.Add(ring)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := FromBinary(data)
		if err != nil {
			return // rejected cleanly
		}
		if got.NumSlices() < 2 || got.NumSlices() > maxWireSlices {
			t.Fatalf("accepted a %d-slice ring", got.NumSlices())
		}
		enc, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted blob failed: %v", err)
		}
		again, err := FromBinary(enc)
		if err != nil {
			t.Fatalf("re-decode of re-marshal failed: %v", err)
		}
		enc2, err := again.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("marshal not byte-stable across a decode cycle")
		}
	})
}
