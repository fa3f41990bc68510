package cluster

// Tests for the transfer frame's blob compression: the headline
// wire-bytes reduction on a 2000-key rebalance, the per-frame
// compression skip for incompressible blobs, and the pooled frame-line
// scratch buffers' zero-alloc guarantee.

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"testing"

	"exaloglog/internal/core"
	"exaloglog/server"
)

// denseBlob is a dense serialized sketch holding the elements — what a
// key past break-even, or one restored from a plain sketch, holds. (A
// PFADD-built key this small is a token blob of a few bytes, which the
// codec leaves alone.)
func denseBlob(t testing.TB, elements ...string) []byte {
	t.Helper()
	sk := core.MustNew(testConfig())
	for _, el := range elements {
		sk.AddString(el)
	}
	blob, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestTransferCompressionReducesWireBytes: rebalancing 2000 near-empty
// dense sketches onto a joining node must put at least 2× fewer payload
// bytes on the wire than the uncompressed framing would — the PR's
// acceptance fixture. (In practice near-empty sketches compress ~100×;
// 2× is the floor the counters must prove.)
func TestTransferCompressionReducesWireBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-key compression fixture skipped in -short")
	}
	const total = 2000
	h := newHarnessCfg(t, 1, 2, &TransferConfig{MinStreamKeys: 1})
	keyName := func(k int) string { return fmt.Sprintf("zc-%d", k) }
	blob := denseBlob(t, "x")
	for k := 0; k < total; k++ {
		if err := h.node("n1").Store().Restore(keyName(k), blob); err != nil {
			t.Fatal(err)
		}
	}
	h.start("n2", "127.0.0.1:0")
	if err := h.node("n2").Join(h.addr("n1")); err != nil {
		t.Fatal(err)
	}

	stats := sumTransferStats(h.running())
	if stats.BytesWire == 0 || stats.BytesPrecompress == 0 {
		t.Fatalf("compression counters never moved: pre=%d wire=%d", stats.BytesPrecompress, stats.BytesWire)
	}
	if stats.BytesPrecompress < 2*stats.BytesWire {
		t.Errorf("wire bytes %d vs %d precompress — less than the required 2× reduction",
			stats.BytesWire, stats.BytesPrecompress)
	}
	t.Logf("wire bytes: precompress=%d wire=%d ratio=%.1fx (%d keys)",
		stats.BytesPrecompress, stats.BytesWire,
		float64(stats.BytesPrecompress)/float64(stats.BytesWire), total)
	if stats.FallbackKeys != 0 {
		t.Errorf("%d keys degraded to per-key ABSORB", stats.FallbackKeys)
	}
	// Compression lost nothing: the joiner replicates every key.
	if got := h.node("n2").Store().Len(); got != total {
		t.Fatalf("joiner holds %d keys, want %d", got, total)
	}
	for k := 0; k < total; k += 83 {
		if got := mustCount(t, h.node("n2"), keyName(k)); int64(got+0.5) != 1 {
			t.Errorf("count %s = %v after compressed transfer, want ≈1", keyName(k), got)
		}
	}
}

// TestEncodeFrameCompressedSkipsIncompressible: a frame of blobs the
// codec cannot shrink (random bytes, token blobs) carries them raw and
// is exactly as long as its precompress size — paying the per-blob
// container overhead for a <5% saving is a loss. Near-empty dense
// sketches do go through the codec, and the decoder needs no hint to
// tell the two apart.
func TestEncodeFrameCompressedSkipsIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	random := make([]server.KeyBlob, 8)
	for i := range random {
		blob := make([]byte, 4096)
		rng.Read(blob)
		random[i] = server.KeyBlob{Key: fmt.Sprintf("rnd-%d", i), Blob: blob}
	}
	// Token blobs are hash bits: nothing to win there either.
	tokens := make([]server.KeyBlob, 8)
	st, err := server.NewStore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tokens {
		key := fmt.Sprintf("tk-%d", i)
		if _, err := st.Add(key, fmt.Sprintf("el-%d", i)); err != nil {
			t.Fatal(err)
		}
		blob, _ := st.Dump(key)
		tokens[i] = server.KeyBlob{Key: key, Blob: blob}
	}
	for name, items := range map[string][]server.KeyBlob{"random": random, "token": tokens} {
		buf, pre := encodeFrame(items)
		if pre != frameSizeRaw(items) || pre != len(buf) {
			t.Errorf("%s frame: %d bytes, precompress %d, raw size %d — want all equal", name, len(buf), pre, frameSizeRaw(items))
		}
		for i, it := range items {
			if !bytes.Contains(buf, it.Blob) {
				t.Errorf("%s frame record %d does not carry its blob raw", name, i)
			}
		}
	}
	// Near-empty dense sketches DO shrink, and the frame round-trips.
	sparse := make([]server.KeyBlob, 8)
	for i := range sparse {
		sparse[i] = server.KeyBlob{Key: fmt.Sprintf("sp-%d", i), Blob: denseBlob(t, fmt.Sprintf("el-%d", i)), Deadline: int64(i) * 1000}
	}
	zbuf, zpre := encodeFrame(sparse)
	if zpre != frameSizeRaw(sparse) || len(zbuf)*2 >= zpre {
		t.Errorf("compressed frame is %d bytes for %d raw (raw size %d) — want at least 2× smaller", len(zbuf), zpre, frameSizeRaw(sparse))
	}
	got, err := decodeFrame(zbuf)
	if err != nil {
		t.Fatalf("decode of a compressed frame: %v", err)
	}
	if len(got) != len(sparse) {
		t.Fatalf("decoded %d records, want %d", len(got), len(sparse))
	}
	for i := range sparse {
		if got[i].Key != sparse[i].Key || got[i].Deadline != sparse[i].Deadline ||
			!bytes.Equal(got[i].Blob, sparse[i].Blob) {
			t.Errorf("record %d did not round-trip through the codec", i)
		}
	}
}

// TestFrameLineScratchZeroAlloc: assembling a frame line into a warmed
// pooled scratch buffer must not allocate — the sender's steady state
// re-uses one buffer per stream, whatever the frame count.
func TestFrameLineScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	items := []server.KeyBlob{
		{Key: "k1", Blob: bytes.Repeat([]byte{3}, 1500)},
		{Key: "k2", Blob: bytes.Repeat([]byte{9}, 900), Deadline: 12345},
	}
	raw, _ := encodeFrame(items)
	bufp := lineScratch.Get().(*[]byte)
	defer lineScratch.Put(bufp)
	*bufp = appendFrameLine((*bufp)[:0], "sid-warmup", 1, raw) // size the buffer once
	seq := uint64(2)
	avg := testing.AllocsPerRun(200, func() {
		*bufp = appendFrameLine((*bufp)[:0], "sid-warmup", seq, raw)
		seq++
	})
	if avg != 0 {
		t.Errorf("appendFrameLine allocates %.2f per frame with a warmed scratch buffer, want 0", avg)
	}
	// The assembled line is still correct after the pooling dance.
	want := "CLUSTER XFER FRAME sid-warmup " +
		fmt.Sprint(seq-1) + " " + base64.StdEncoding.EncodeToString(raw)
	if got := string(*bufp); got != want {
		t.Errorf("pooled frame line diverged from the reference encoding:\n got %q\nwant %q", got[:60], want[:60])
	}
}
