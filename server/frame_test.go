package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"exaloglog/internal/core"
)

// mixedItems is one record of each value kind a store dumps: a dense
// sketch, a token blob and a window ring of token slices.
func mixedItems(tb testing.TB) []KeyBlob {
	tb.Helper()
	st, err := NewStore(core.RecommendedML(12))
	if err != nil {
		tb.Fatal(err)
	}
	dense := core.MustNew(st.Config())
	dense.AddString("x")
	blob, _ := dense.MarshalBinary()
	if err := st.Restore("dense", blob); err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Add("tokens", "a", "b", "c"); err != nil {
		tb.Fatal(err)
	}
	if _, err := st.WindowAdd("ring", time.UnixMilli(1_700_000_000_000), "p", "q"); err != nil {
		tb.Fatal(err)
	}
	var items []KeyBlob
	for i, key := range []string{"dense", "tokens", "ring"} {
		blob, ok := st.Dump(key)
		if !ok {
			tb.Fatalf("fixture key %s missing", key)
		}
		items = append(items, KeyBlob{Key: key, Blob: blob, Deadline: int64(i) * 1_000_000})
	}
	return items
}

func TestFrameCodecRoundTrip(t *testing.T) {
	mixed := mixedItems(t)
	for name, items := range map[string][]KeyBlob{
		"arbitrary": {
			{Key: "a", Blob: []byte{1, 2, 3}},
			{Key: "key-2", Blob: []byte{}},
			{Key: "k3", Blob: bytes.Repeat([]byte{7}, 1000)},
		},
		"mixed": mixed,
	} {
		enc := EncodeFrame(items)
		got, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("%s: decode of a valid frame: %v", name, err)
		}
		if len(got) != len(items) {
			t.Fatalf("%s: decoded %d records, want %d", name, len(got), len(items))
		}
		for i := range items {
			if got[i].Key != items[i].Key || got[i].Deadline != items[i].Deadline || !bytes.Equal(got[i].Blob, items[i].Blob) {
				t.Errorf("%s record %d: got %q/%d/%d blob bytes, want %q/%d/%d", name,
					i, got[i].Key, got[i].Deadline, len(got[i].Blob), items[i].Key, items[i].Deadline, len(items[i].Blob))
			}
		}
	}
	// A frame is its records and a few bytes of framing: the two-element
	// ring travels as its token slices, not as 60 register arrays.
	enc, payload := EncodeFrame(mixed), 0
	for _, it := range mixed {
		payload += len(it.Key) + len(it.Blob)
	}
	if ring := mixed[2].Blob; len(ring) > 100 || len(enc) > payload+4*len(mixed)+8 {
		t.Errorf("mixed frame is %d bytes for %d of keys and blobs, its ring %d", len(enc), payload, len(ring))
	}
	// Every truncation must fail cleanly — the frame carries its record
	// count up front, so losing any tail byte is detectable.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeFrame(enc[:i]); err == nil {
			t.Errorf("frame truncated to %d of %d bytes decoded without error", i, len(enc))
		}
	}
	// A hostile count must be rejected before it can size an allocation.
	huge := append([]byte(frameMagic), binary.AppendUvarint(nil, 1<<40)...)
	if _, err := DecodeFrame(huge); err == nil {
		t.Error("frame claiming 2^40 records decoded without error")
	}
}

// pinnedFrame is the ELX3 frame of pinnedFrameItems: the bytes the XFER wire
// carries for those keys, and a snapshot of them holds.
const pinnedFrame = "454c58330306737061727365000c454c5433021404030daf2a200564656e736580a0b6cef7850240454c0102140400006c21210100b607250880019f1d1000d08580000024a0fff0f00d10140300f0f10c001550230541070a18f0ed00f1000016305700f10381150472696e670029454c57310214048094ebdc033c008080bca7a6f7cfa4180180c3bbc2060b454c543302140402d59f02"

// pinnedFrameItems is a sparse key, a dense key with a deadline and a
// window ring, at p=4 so the dense register array is 56 bytes.
func pinnedFrameItems(tb testing.TB) []KeyBlob {
	tb.Helper()
	st, err := NewStore(core.Config{T: 2, D: 20, P: 4})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Add("sparse", "alice", "bob", "carol"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := st.Add("dense", fmt.Sprintf("d-%d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := st.WindowAdd("ring", time.UnixMilli(1_750_000_000_000), "p", "q"); err != nil {
		tb.Fatal(err)
	}
	for key, mode := range map[string]string{"sparse": "mode=sparse", "dense": "mode=dense"} {
		if info, _ := st.Info(key); !strings.Contains(info, mode) {
			tb.Fatalf("%s: INFO %q, want %s", key, info, mode)
		}
	}
	var items []KeyBlob
	for _, r := range []struct {
		key      string
		deadline int64
	}{{"sparse", 0}, {"dense", 9_000_000_000_000}, {"ring", 0}} {
		blob, ok := st.Dump(r.key)
		if !ok {
			tb.Fatalf("fixture key %s missing", r.key)
		}
		items = append(items, KeyBlob{Key: r.key, Blob: blob, Deadline: r.deadline})
	}
	return items
}

// TestFrameBytesArePinned: the frame codec writes the bytes it always
// wrote, and a snapshot of the same keys is those bytes in one frame.
func TestFrameBytesArePinned(t *testing.T) {
	items := pinnedFrameItems(t)
	frame := EncodeFrame(items)
	if got := hex.EncodeToString(frame); got != pinnedFrame {
		t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, pinnedFrame)
	}
	st, _ := NewStore(core.Config{T: 2, D: 20, P: 4})
	for _, it := range items {
		if err := st.Restore(it.Key, it.Blob); err != nil {
			t.Fatal(err)
		}
		st.ExpireAt(it.Key, it.Deadline)
	}
	// The writer orders keys by shard, then by name.
	sorted := slices.Clone(items)
	slices.SortFunc(sorted, func(a, b KeyBlob) int {
		return cmp.Or(cmp.Compare(shardIndex(a.Key), shardIndex(b.Key)), strings.Compare(a.Key, b.Key))
	})
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if want := snapshotOf(EncodeFrame(sorted)); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot of the pinned keys is not their one frame:\n got %x\nwant %x", buf.Bytes(), want)
	}
}
