package compress_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"exaloglog/internal/compress"
	"exaloglog/internal/core"
	"exaloglog/window"
)

// sketchBlob returns a serialized dense ML sketch with n distinct elements.
func sketchBlob(t testing.TB, p, n int) []byte {
	t.Helper()
	s, err := core.New(core.RecommendedML(p))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)*7919 + int64(p)))
	for i := 0; i < n; i++ {
		s.AddHash(rng.Uint64())
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestCodecRoundTripSketch(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 5000, 200000} {
		blob := sketchBlob(t, 12, n)
		enc := compress.EncodeBlob(blob)
		dec, err := compress.DecodeBlob(enc, len(blob))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !bytes.Equal(dec, blob) {
			t.Fatalf("n=%d: round trip mismatch (%d vs %d bytes)", n, len(dec), len(blob))
		}
		if len(enc) > len(blob) {
			t.Fatalf("n=%d: encode grew the blob %d → %d", n, len(blob), len(enc))
		}
		t.Logf("n=%d: %d → %d bytes (%.1f%%)", n, len(blob), len(enc), 100*float64(len(enc))/float64(len(blob)))
	}
}

// TestCodecSparseWins: a near-empty sketch (the common case for per-key
// cluster sketches) must compress dramatically — this ratio is the whole
// point of the wire codec.
func TestCodecSparseWins(t *testing.T) {
	blob := sketchBlob(t, 12, 10)
	enc := compress.EncodeBlob(blob)
	if len(enc)*10 > len(blob) {
		t.Fatalf("10-element p=12 sketch compressed only %d → %d bytes; want ≥10×", len(blob), len(enc))
	}
}

func TestCodecRoundTripWindowBlob(t *testing.T) {
	w, err := window.New(core.RecommendedML(10), time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	for i := 0; i < 500; i++ {
		w.AddString(base.Add(time.Duration(i)*time.Millisecond), fmt.Sprintf("elem-%d", i))
	}
	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	enc := compress.EncodeBlob(blob)
	dec, err := compress.DecodeBlob(enc, len(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, blob) {
		t.Fatal("window blob round trip mismatch")
	}
}

func TestCodecRoundTripArbitrary(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := [][]byte{
		nil,
		{},
		[]byte("hello"),
		[]byte("ELC1 raw data that collides with the codec magic"),
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte("abc"), 1000),
	}
	random := make([]byte, 2048)
	rng.Read(random)
	cases = append(cases, random)
	for i, raw := range cases {
		enc := compress.EncodeBlob(raw)
		dec, err := compress.DecodeBlob(enc, len(raw))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(dec, raw) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

// TestEncodeBlobLeavesTokenBlobsAlone: a sparse-mode token blob is
// entropy-coded already — nothing to gain — so the encoder must hand back
// the very same slice without running a coder over it, and the decoder pass
// it through.
func TestEncodeBlobLeavesTokenBlobsAlone(t *testing.T) {
	h, err := core.NewHybrid(core.RecommendedML(12))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		h.AddHash(rng.Uint64())
	}
	blob, _ := h.MarshalBinary()
	if !core.IsTokenBlob(blob) {
		t.Fatal("1000-element p=12 hybrid did not serialize as a token blob")
	}
	enc := compress.EncodeBlob(blob)
	if &enc[0] != &blob[0] || len(enc) != len(blob) {
		t.Fatalf("token blob was re-coded: %d → %d bytes", len(blob), len(enc))
	}
	dec, err := compress.DecodeBlob(enc, len(blob))
	if err != nil || !bytes.Equal(dec, blob) {
		t.Fatalf("token blob did not pass through the decoder: %v", err)
	}
	// The encoder knows a token blob by the magic core writes today, not by
	// finding nothing to gain: behind that magic even a body of zeros, which
	// any coder shrinks, comes back as it is.
	zeros := append(append([]byte(nil), blob[:7]...), make([]byte, 4096)...)
	if enc := compress.EncodeBlob(zeros); len(enc) != len(zeros) {
		t.Fatalf("the coder ran over a blob with the token magic %q: %d → %d bytes", blob[:4], len(zeros), len(enc))
	}
}

func TestDecodeBlobPassThrough(t *testing.T) {
	raw := []byte("EL not actually compressed")
	dec, err := compress.DecodeBlob(raw, len(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("uncompressed input must pass through unchanged")
	}
	if _, err := compress.DecodeBlob(raw, len(raw)-1); err == nil {
		t.Fatal("want error when raw input exceeds the limit")
	}
}

func TestDecodeBlobRejectsOversizedClaim(t *testing.T) {
	blob := sketchBlob(t, 12, 100)
	enc := compress.EncodeBlob(blob)
	if !compress.IsCompressed(enc) {
		t.Skip("blob did not compress")
	}
	if _, err := compress.DecodeBlob(enc, len(blob)-1); err == nil {
		t.Fatal("want error when claimed raw length exceeds the limit")
	}
}

func TestDecodeBlobHostile(t *testing.T) {
	cases := [][]byte{
		[]byte("ELC1"),
		[]byte("ELC1\x00"),
		[]byte("ELC1s"),
		[]byte("ELC1s\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), // huge rawLen
		[]byte("ELC1r\x05ab"), // stored, short payload
		[]byte("ELC1e\x00"),
		[]byte("ELC1z\x08\x03abc"),
		append([]byte("ELC1s\x10"), bytes.Repeat([]byte{0xff}, 64)...),
	}
	for i, data := range cases {
		if _, err := compress.DecodeBlob(data, 1<<20); err == nil {
			// Entropy methods legitimately decode garbage to garbage of
			// the claimed length; anything structured must error.
			if len(data) > 4 && (data[4] == 's' || data[4] == 'r' || data[4] == 0) {
				t.Fatalf("case %d: want error for hostile input %q", i, data)
			}
		}
	}
}

func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte("ELC1s\x10\x02\x00\x01"))
	f.Add(sketchBlob(f, 8, 50))
	f.Add(compress.EncodeBlob(sketchBlob(f, 8, 50)))
	f.Add(compress.EncodeBlob(sketchBlob(f, 12, 100000)))
	f.Add([]byte("ELC1z\xff\x01\xff\x01deadbeef"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Production callers cap decodes in the MB range; the fuzzer uses
		// a smaller cap so hostile entropy containers (which legitimately
		// decode to `limit` garbage bytes) don't throttle exec rate.
		const limit = 64 << 10
		dec, err := compress.DecodeBlob(data, limit)
		if err != nil {
			return
		}
		if len(dec) > limit {
			t.Fatalf("decode exceeded limit: %d > %d", len(dec), limit)
		}
		// Whatever decoded must re-encode and decode to itself: the codec
		// is a bijection on its own output.
		enc := compress.EncodeBlob(dec)
		back, err := compress.DecodeBlob(enc, len(dec))
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if !bytes.Equal(back, dec) {
			t.Fatal("re-encode round trip mismatch")
		}
	})
}

func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ELC1"))
	f.Add(sketchBlob(f, 8, 10))
	f.Fuzz(func(t *testing.T, raw []byte) {
		enc := compress.EncodeBlob(raw)
		dec, err := compress.DecodeBlob(enc, len(raw))
		if err != nil {
			t.Fatalf("decode of own encode failed: %v", err)
		}
		if !bytes.Equal(dec, raw) {
			t.Fatal("round trip mismatch")
		}
	})
}

func BenchmarkCodecEncode(b *testing.B) {
	for _, n := range []int{10, 1000, 100000} {
		blob := sketchBlob(b, 12, n)
		b.Run(fmt.Sprintf("p12_n%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				compress.EncodeBlob(blob)
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	for _, n := range []int{10, 1000, 100000} {
		blob := sketchBlob(b, 12, n)
		enc := compress.EncodeBlob(blob)
		b.Run(fmt.Sprintf("p12_n%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compress.DecodeBlob(enc, len(blob)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
