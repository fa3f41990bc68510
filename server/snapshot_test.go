package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"exaloglog/internal/core"
)

func populatedStore(t *testing.T, keys int) *Store {
	t.Helper()
	st, err := NewStore(core.RecommendedML(8))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		for e := 0; e < 100*(k+1); e++ {
			st.Add(key, fmt.Sprintf("el-%d-%d", k, e))
		}
	}
	return st
}

func TestSnapshotRoundTrip(t *testing.T) {
	orig := populatedStore(t, 5)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewStore(core.RecommendedML(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("restored %d keys, want %d", restored.Len(), orig.Len())
	}
	for _, key := range orig.Keys() {
		a, _ := orig.Count(key)
		b, _ := restored.Count(key)
		if a != b {
			t.Errorf("key %s: restored count %g != %g", key, b, a)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	st := populatedStore(t, 3)
	var a, b bytes.Buffer
	if err := st.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("snapshots of the same store differ")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	st, _ := NewStore(core.RecommendedML(8))
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Errorf("empty round trip has %d keys", st.Len())
	}
}

// TestSnapshotMetaRoundTrip: the opaque metadata blob (the cluster
// package keeps its membership map there) survives the snapshot cycle
// and failed loads leave it untouched.
func TestSnapshotMetaRoundTrip(t *testing.T) {
	orig := populatedStore(t, 2)
	meta := []byte("v2 7 3 n1 2 n1=a:1 n2=a:2")
	orig.SetMeta(meta)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, _ := NewStore(core.RecommendedML(8))
	if err := restored.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := restored.Meta(); !bytes.Equal(got, meta) {
		t.Errorf("restored meta %q, want %q", got, meta)
	}
	// Meta is a copy: mutating the returned slice cannot corrupt the store.
	restored.Meta()[0] = 'X'
	if got := restored.Meta(); !bytes.Equal(got, meta) {
		t.Error("Meta returned an aliased slice")
	}
	// A failed load leaves existing meta (and sketches) alone.
	keep, _ := NewStore(core.RecommendedML(8))
	keep.SetMeta([]byte("keep-me"))
	if err := keep.ReadSnapshot(bytes.NewReader(buf.Bytes()[:6])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if got := keep.Meta(); string(got) != "keep-me" {
		t.Errorf("failed load clobbered meta: %q", got)
	}
	// Clearing works and persists as "no meta".
	orig.SetMeta(nil)
	buf.Reset()
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Meta() != nil {
		t.Errorf("cleared meta came back as %q", restored.Meta())
	}
}

// TestSnapshotRejectsOtherVersions: version 6 is the only snapshot
// format. A stream that is a valid snapshot in every byte but the
// version is refused with the "unsupported snapshot version" error, and
// so is a real version 5 file (a record count, then type-tagged records);
// the store it was aimed at keeps its sketches and its metadata.
func TestSnapshotRejectsOtherVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := populatedStore(t, 2).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != snapshotVersion {
		t.Fatalf("writer emitted version %d, want %d", got, snapshotVersion)
	}
	target := populatedStore(t, 1)
	target.SetMeta([]byte("keep-me"))
	want, _ := target.Count("key-0")
	// A store of one plain key "k" holding "a" as version 5 wrote it: no
	// metadata, one record, its key, the type tag 'E', no deadline, the
	// 10-byte token blob.
	v5, _ := hex.DecodeString("454c5353050001016b4500" + "0a" + "454c543302140801f91c")
	cases := map[string][]byte{"a version 5 file": v5}
	for _, version := range []byte{0, 1, 2, 3, 4, 5, 7} {
		data := append([]byte{}, buf.Bytes()...)
		data[4] = version
		cases[fmt.Sprintf("version %d", version)] = data
	}
	for name, data := range cases {
		err := target.ReadSnapshot(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported snapshot version %d", data[4])) {
			t.Errorf("%s: err = %v, want unsupported snapshot version", name, err)
		}
		if got, _ := target.Count("key-0"); target.Len() != 1 || got != want || string(target.Meta()) != "keep-me" {
			t.Errorf("%s: refused load changed the store (len=%d count=%v meta=%q)", name, target.Len(), got, target.Meta())
		}
	}
}

// TestSnapshotV3WindowRoundTrip: each record's blob names its value type
// by its own magic, so a store mixing plain and windowed keys round-trips
// with both workloads intact — including the windowed keys' Dropped
// statistic and per-window estimates.
func TestSnapshotV3WindowRoundTrip(t *testing.T) {
	orig := populatedStore(t, 2)
	base := time.UnixMilli(1_700_000_000_000)
	for s := 0; s < 5; s++ {
		ts := base.Add(time.Duration(s) * time.Second)
		for e := 0; e < 50; e++ {
			if _, err := orig.WindowAdd("scan:10.0.0.9", ts, fmt.Sprintf("port-%d-%d", s, e)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := orig.WindowAdd("scan:10.0.0.9", base.Add(-time.Hour), "ancient"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, _ := NewStore(core.RecommendedML(8))
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("restored %d keys, want %d", restored.Len(), orig.Len())
	}
	for _, key := range orig.Keys() {
		if key == "scan:10.0.0.9" {
			continue
		}
		a, _ := orig.Count(key)
		b, err := restored.Count(key)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("plain key %s: restored count %g != %g", key, b, a)
		}
	}
	for w := 1; w <= 5; w++ {
		win := time.Duration(w) * time.Second
		a, err := orig.WindowCount("scan:10.0.0.9", win, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.WindowCount("scan:10.0.0.9", win, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("window %v: restored estimate %g != %g", win, b, a)
		}
	}
	a, _, err := orig.WindowInfo("scan:10.0.0.9")
	if err != nil {
		t.Fatal(err)
	}
	b, ok, err := restored.WindowInfo("scan:10.0.0.9")
	if err != nil || !ok {
		t.Fatalf("restored WindowInfo: %v, ok=%v", err, ok)
	}
	if a != b {
		t.Errorf("restored window info %q != %q (Dropped or geometry lost)", b, a)
	}
	if !strings.Contains(b, "dropped=1") {
		t.Errorf("window info %q does not surface the dropped insert", b)
	}
}

// snapshotOf wraps frames in a snapshot file without metadata: the v6
// header, each frame behind its length, the terminator.
func snapshotOf(frames ...[]byte) []byte {
	snap := []byte("ELSS\x06\x00")
	for _, f := range frames {
		snap = append(binary.AppendUvarint(snap, uint64(len(f))), f...)
	}
	return append(snap, 0)
}

// elc1Record is a snapshot of one plain key whose blob is an "ELC1"
// container of the generic codec snapshots ran through until PR 24 — the
// 14 344-byte dense blob of one element, in the 22 bytes a store of that
// time wrote for it.
func elc1Record(tb testing.TB) []byte {
	tb.Helper()
	blob, err := base64.StdEncoding.DecodeString("RUxDMXOIcEVMAQIUDAAAAY8KgICEAg==")
	if err != nil {
		tb.Fatal(err)
	}
	return snapshotOf(EncodeFrame([]KeyBlob{{Key: "packed", Blob: blob}}))
}

// TestSnapshotRecordsAreStoredAsTheyAre: a record's blob is the value's own
// serialization, byte for byte — a dense blob included — and a record in the
// retired codec's container is refused by name, the store untouched.
func TestSnapshotRecordsAreStoredAsTheyAre(t *testing.T) {
	st := newTestStore(t)
	dense := core.MustNew(st.Config())
	dense.AddString("one-element")
	blob, _ := dense.MarshalBinary()
	if err := st.Restore("dense", blob); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if body := buf.Bytes()[:buf.Len()-1]; !bytes.HasSuffix(body, blob) { // before the terminator
		t.Errorf("the %d-byte snapshot does not end with the %d bytes the key dumps as", buf.Len(), len(blob))
	}
	err := st.ReadSnapshot(bytes.NewReader(elc1Record(t)))
	if err == nil || !strings.Contains(err.Error(), `frame 0 ("packed")`) {
		t.Errorf("ELC1 record: err = %v, want one naming frame 0 (\"packed\")", err)
	}
	if dumped, _ := st.Dump("dense"); st.Len() != 1 || !bytes.Equal(dumped, blob) {
		t.Error("a refused snapshot changed the store")
	}
}

func TestSnapshotCorruptInputs(t *testing.T) {
	st := populatedStore(t, 2)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	fresh, _ := NewStore(core.RecommendedML(8))
	for name, corrupt := range map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("XXXX"), good[4:]...),
		"bad version":     append([]byte("ELSS\x09"), good[5:]...),
		"truncated":       good[:len(good)-3],
		"truncated early": good[:6],
	} {
		if err := fresh.ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
			t.Errorf("%s snapshot accepted", name)
		}
		// The store must be unchanged after a failed load.
		if fresh.Len() != 0 {
			t.Fatalf("%s: failed load mutated the store", name)
		}
	}
}

// TestSnapshotRefusesRepeatedKeys: a writer emits every key once, so a key
// that comes back — in the same frame, in a later one, or after a first
// record that had already expired — is corruption, not a newer value.
func TestSnapshotRefusesRepeatedKeys(t *testing.T) {
	st := newTestStore(t)
	if _, err := st.Add("k", "a"); err != nil {
		t.Fatal(err)
	}
	blob, _ := st.Dump("k")
	rec := KeyBlob{Key: "k", Blob: blob}
	gone := KeyBlob{Key: "k", Blob: blob, Deadline: 1}
	other := KeyBlob{Key: "other", Blob: blob}
	for name, data := range map[string][]byte{
		"same frame":          snapshotOf(EncodeFrame([]KeyBlob{rec, other, rec})),
		"later frame":         snapshotOf(EncodeFrame([]KeyBlob{rec}), EncodeFrame([]KeyBlob{other, rec})),
		"after expired first": snapshotOf(EncodeFrame([]KeyBlob{gone}), EncodeFrame([]KeyBlob{rec})),
	} {
		err := st.ReadSnapshot(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), `key "k" repeats`) {
			t.Errorf("%s: err = %v, want the repeated key named", name, err)
		}
		if st.Len() != 1 {
			t.Errorf("%s: refused load left %d keys", name, st.Len())
		}
	}
	if err := st.ReadSnapshot(bytes.NewReader(snapshotOf(EncodeFrame([]KeyBlob{rec}), EncodeFrame([]KeyBlob{other})))); err != nil || st.Len() != 2 {
		t.Errorf("two frames of distinct keys: err = %v, %d keys", err, st.Len())
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.elss")
	orig := populatedStore(t, 3)
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, _ := NewStore(core.RecommendedML(8))
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 3 {
		t.Fatalf("restored %d keys", restored.Len())
	}
	// Atomic write: no temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after SaveFile", len(entries))
	}
	if err := restored.LoadFile(filepath.Join(dir, "missing.elss")); err == nil {
		t.Error("loading missing file succeeded")
	}
}

// TestSaveFileBytesArePinned: the snapshot file of a fixed mixed keyspace —
// a sparse plain key, a dense one with a deadline, a dense key of a foreign
// configuration and a window ring with sparse and dense slices — is the same
// file, byte for byte, whatever shape the store holds its values in.
func TestSaveFileBytesArePinned(t *testing.T) {
	store, err := NewStore(core.RecommendedML(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Add("sparse", "alice", "bob", "carol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if _, err := store.Add("dense", fmt.Sprintf("d-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	store.ExpireAt("dense", 9_000_000_000_000)
	foreign := core.MustNew(core.Config{T: 2, D: 20, P: 6})
	foreign.AddString("x")
	blob, _ := foreign.MarshalBinary()
	if err := store.Restore("foreign", blob); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		ts := time.UnixMilli(1_750_000_000_000 + int64(s)*1000)
		for i := 0; i < 5+1500*(s%2); i++ {
			if _, err := store.WindowAdd("ring", ts, fmt.Sprintf("w-%d-%d", s, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for key, mode := range map[string]string{"sparse": "mode=sparse", "dense": "mode=dense"} {
		if info, _ := store.Info(key); !strings.Contains(info, mode) {
			t.Fatalf("%s: INFO %q, want %s", key, info, mode)
		}
	}
	path := filepath.Join(t.TempDir(), "pinned.elss")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "d4ef6ae5ff13bddf371c94b44daf39c55b5ecf6d5cea8c6e0374297dab31ea72"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
		t.Errorf("the %d-byte snapshot has SHA-256 %x, want %s", len(data), sum, want)
	}
}

// heapSampler discards what it is given and samples the live heap on every
// nth Write.
type heapSampler struct {
	every, writes int
	bytes         int
	peak          uint64
}

func (w *heapSampler) Write(p []byte) (int, error) {
	if w.writes%w.every == 0 {
		w.peak = max(w.peak, liveHeap())
	}
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestSnapshotSaveHoldsOneFrame: a save streams the store frame by frame,
// so while it writes an 8 MB snapshot the live heap holds one frame
// (1 MB) beside the store, not a second, serialized copy of it.
func TestSnapshotSaveHoldsOneFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	store := newTestStore(t)
	for i := 0; i < 600; i++ { // 600 dense keys of 14 344 bytes
		sk := core.MustNew(store.Config())
		sk.AddString(fmt.Sprint(i))
		blob, _ := sk.MarshalBinary()
		if err := store.Restore(fmt.Sprintf("dense-%03d", i), blob); err != nil {
			t.Fatal(err)
		}
	}
	w := &heapSampler{every: 4}
	before := liveHeap()
	if err := store.WriteSnapshot(w); err != nil {
		t.Fatal(err)
	}
	if w.bytes < 8<<20 {
		t.Fatalf("the snapshot is %d bytes, want at least 8 MB", w.bytes)
	}
	growth := int64(w.peak) - int64(before)
	t.Logf("a %d-byte snapshot in %d writes: live heap grew by at most %d bytes (%.2f× the file)",
		w.bytes, w.writes, growth, float64(growth)/float64(w.bytes))
	if growth > 2<<20 {
		t.Errorf("saving grew the live heap by %d bytes, want at most 2 MB", growth)
	}
	runtime.KeepAlive(store)
}

func TestSaveCommandOverWire(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wire.elss")
	store, err := NewStore(core.RecommendedML(10))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.SetSnapshotPath(path)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.PFAdd("persisted", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("SAVE"); err != nil {
		t.Fatal(err)
	}
	// Simulate a restart: fresh store loads the snapshot.
	store2, _ := NewStore(core.RecommendedML(10))
	if err := store2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if n, _ := store2.Count("persisted"); n < 2.9 || n > 3.1 {
		t.Errorf("restarted count %g, want ≈3", n)
	}
}

func TestSaveWithoutPath(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Do("SAVE"); err == nil {
		t.Error("SAVE without a configured path succeeded")
	}
}
