package cluster

// Tests for the compressed transfer path (ELX3): the headline
// wire-bytes reduction on a 2000-key rebalance, the negotiate-down
// handshake against a pre-ELX3 receiver (zero data loss, zero per-key
// fallbacks), the per-frame compression skip for incompressible blobs,
// and the pooled frame-line scratch buffers' zero-alloc guarantee.

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"strings"
	"sync"
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

	sawZ := false
	var mu sync.Mutex
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) == 6 && parts[2] == "FRAME" && parts[5] == frameMagicZ {
			mu.Lock()
			sawZ = true
			mu.Unlock()
		}
		return nil
	})
	defer h.setIntercept(nil)

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
	// The bytes-on-wire row CI's smoke step surfaces in its log.
	t.Logf("wire bytes: precompress=%d wire=%d ratio=%.1fx (%d keys)",
		stats.BytesPrecompress, stats.BytesWire,
		float64(stats.BytesPrecompress)/float64(stats.BytesWire), total)
	mu.Lock()
	z := sawZ
	mu.Unlock()
	if !z {
		t.Error("no ELX3 frame ever hit the wire — compression was never negotiated")
	}
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

// TestTransferNegotiatesDownToLegacyReceiver: a receiver running a
// pre-ELX3 build rejects the BEGIN handshake's c=1 token by arity
// (simulated by legacy mode, which mirrors the old parser exactly).
// The sender must fall back to uncompressed ELX2 frames on the SAME
// stream budget — no per-key fallback, no lost keys.
func TestTransferNegotiatesDownToLegacyReceiver(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-version negotiation harness skipped in -short")
	}
	const total = 600
	h := newHarnessCfg(t, 1, 2, &TransferConfig{MinStreamKeys: 1})
	keyName := func(k int) string { return fmt.Sprintf("lg-%d", k) }
	for k := 0; k < total; k++ {
		if _, err := h.node("n1").Add(keyName(k), "x", "y"); err != nil {
			t.Fatal(err)
		}
	}
	legacy := h.start("n2", "127.0.0.1:0")
	legacy.xfer.legacy.Store(true)

	var mu sync.Mutex
	var beginsWithC, beginsPlain int
	var badFrames []string
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) < 3 || parts[0] != "CLUSTER" || !strings.EqualFold(parts[1], "XFER") {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		switch parts[2] {
		case "BEGIN":
			if parts[len(parts)-1] == "c=1" {
				beginsWithC++
			} else {
				beginsPlain++
			}
		case "FRAME":
			// Every frame reaching a legacy receiver must be ELX2 — an
			// ELX3 frame would be data loss waiting to happen.
			if len(parts) == 6 && parts[5] != frameMagic {
				badFrames = append(badFrames, parts[5])
			}
		}
		return nil
	})
	defer h.setIntercept(nil)

	if err := legacy.Join(h.addr("n1")); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	withC, plain, bad := beginsWithC, beginsPlain, append([]string(nil), badFrames...)
	mu.Unlock()
	if withC == 0 {
		t.Error("sender never attempted the c=1 handshake")
	}
	if plain == 0 {
		t.Error("sender never negotiated down to an uncompressed stream")
	}
	if len(bad) != 0 {
		t.Errorf("%d non-ELX2 frames sent to a legacy receiver (magics %v)", len(bad), bad)
	}

	stats := sumTransferStats(h.running())
	if stats.FallbackKeys != 0 {
		t.Errorf("%d keys degraded to per-key ABSORB — negotiation must not burn the retry budget", stats.FallbackKeys)
	}
	if got := legacy.Store().Len(); got != total {
		t.Fatalf("legacy receiver holds %d keys, want %d", got, total)
	}
	for k := 0; k < total; k += 67 {
		if got := mustCount(t, legacy, keyName(k)); int64(got+0.5) != 2 {
			t.Errorf("count %s = %v on the legacy receiver, want ≈2", keyName(k), got)
		}
	}
}

// TestEncodeFrameCompressedSkipsIncompressible: blobs the codec cannot
// shrink (random bytes) must ship as a plain ELX2 frame — paying the
// ELX3 magic and per-blob container overhead for a <5% saving is a
// loss, and the receiver handles either magic transparently.
func TestEncodeFrameCompressedSkipsIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items := make([]server.KeyBlob, 8)
	for i := range items {
		blob := make([]byte, 4096)
		rng.Read(blob)
		items[i] = server.KeyBlob{Key: fmt.Sprintf("rnd-%d", i), Blob: blob}
	}
	buf, pre := encodeFrameCompressed(items)
	if pre != frameSizeRaw(items) {
		t.Errorf("precompress size %d, want %d", pre, frameSizeRaw(items))
	}
	if !bytes.HasPrefix(buf, []byte(frameMagic)) {
		t.Errorf("incompressible frame carries magic %q, want %q", buf[:4], frameMagic)
	}
	// Token blobs are hash bits: a frame of them stays ELX2 as well.
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
	if tbuf, _ := encodeFrameCompressed(tokens); !bytes.HasPrefix(tbuf, []byte(frameMagic)) {
		t.Errorf("token-blob frame carries magic %q, want %q", tbuf[:4], frameMagic)
	}
	// Near-empty dense sketches DO flip the frame to ELX3, and it round-trips.
	sparse := make([]server.KeyBlob, 8)
	for i := range sparse {
		sparse[i] = server.KeyBlob{Key: fmt.Sprintf("sp-%d", i), Blob: denseBlob(t, fmt.Sprintf("el-%d", i)), Deadline: int64(i) * 1000}
	}
	zbuf, zpre := encodeFrameCompressed(sparse)
	if !bytes.HasPrefix(zbuf, []byte(frameMagicZ)) {
		t.Fatalf("sparse frame carries magic %q, want %q", zbuf[:4], frameMagicZ)
	}
	if len(zbuf) >= zpre {
		t.Errorf("compressed frame is %d bytes for %d raw — no reduction", len(zbuf), zpre)
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
			t.Errorf("record %d did not round-trip through ELX3", i)
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
	raw := encodeFrame(items)
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
