package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"exaloglog/internal/core"
)

// snapshotBytes serializes a small store to a byte slice.
func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	store, err := NewStore(core.RecommendedML(10))
	if err != nil {
		t.Fatal(err)
	}
	store.Add("alpha", "a", "b", "c")
	store.Add("beta", "d", "e")
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadSnapshotCorruption: truncated and corrupted snapshots must
// return clean errors and leave the store untouched — never panic.
func TestReadSnapshotCorruption(t *testing.T) {
	good := snapshotBytes(t)
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": good[:3],
		"bad magic":        append([]byte("NOPE"), good[4:]...),
		"bad version":      append([]byte("ELSS\x09"), good[5:]...),
		"truncated count":  good[:5],
		"truncated record": good[:len(good)/2],
		"truncated tail":   good[:len(good)-1],
		"garbage blobs":    append(append([]byte{}, good[:8]...), bytes.Repeat([]byte{0xff}, 64)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			store, err := NewStore(core.RecommendedML(10))
			if err != nil {
				t.Fatal(err)
			}
			store.Add("keep", "x")
			if err := store.ReadSnapshot(bytes.NewReader(data)); err == nil {
				t.Fatal("ReadSnapshot succeeded on corrupt input")
			}
			// On error the store must be unchanged.
			if store.Len() != 1 {
				t.Errorf("store has %d keys after failed load, want 1", store.Len())
			}
			if _, ok := store.Dump("keep"); !ok {
				t.Error("existing key lost after failed load")
			}
		})
	}
}

// TestReadSnapshotHugeFrame: a frame claiming more bytes than the frame
// cap is refused before anything is allocated for it, and one under the
// cap that the stream cannot back costs one read step, not its claim.
func TestReadSnapshotHugeFrame(t *testing.T) {
	store, err := NewStore(core.RecommendedML(10))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		length   uint64
		want     string
		maxAlloc uint64
	}{
		"a 2^40-byte frame":                  {1 << 40, "exceeds limit", 64 << 10},
		"a frame at the cap, 4 bytes behind": {snapshotFrameLimit, "unexpected EOF", 4 * DefaultFrameBytes},
	} {
		data := append(binary.AppendUvarint([]byte("ELSS\x06\x00"), c.length), "ELX3"...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := store.ReadSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > c.maxAlloc {
			t.Errorf("%s: refusing it allocated %d bytes, want at most %d", name, alloc, c.maxAlloc)
		}
	}
}

// TestLoadFileTruncated: a snapshot file cut anywhere — inside the header,
// a frame length, a frame, or just before the terminator — fails cleanly
// and leaves the store empty.
func TestLoadFileTruncated(t *testing.T) {
	store, err := NewStore(core.RecommendedML(10))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3*DefaultFrameKeys; k++ {
		store.Add(fmt.Sprintf("k%d", k), "a", "b")
	}
	path := filepath.Join(t.TempDir(), "snap.elss")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewStore(core.RecommendedML(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadFile(path); err != nil || fresh.Len() != store.Len() {
		t.Fatalf("whole file: err = %v, %d keys", err, fresh.Len())
	}
	fresh, _ = NewStore(core.RecommendedML(10))
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadFile(path); err == nil {
			t.Fatalf("LoadFile succeeded on the first %d of %d bytes", n, len(data))
		}
		if fresh.Len() != 0 {
			t.Fatalf("store has %d keys after a failed load of %d bytes, want 0", fresh.Len(), n)
		}
	}
}

// TestRestoreConfigMismatch: RESTORE accepts a sketch with a different
// configuration (documented behavior), and counting it together with a
// t-incompatible default sketch returns a clean error, not a panic.
func TestRestoreConfigMismatch(t *testing.T) {
	store, err := NewStore(core.RecommendedML(10)) // t=2
	if err != nil {
		t.Fatal(err)
	}
	store.Add("native", "a", "b")

	other := core.MustNew(core.Config{T: 1, D: 9, P: 8}) // t=1: merge-incompatible
	other.AddString("x")
	blob, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Restore("foreign", blob); err != nil {
		t.Fatalf("Restore of valid foreign-config blob: %v", err)
	}

	// Counting the foreign key alone works…
	if _, err := store.Count("foreign"); err != nil {
		t.Fatalf("Count(foreign): %v", err)
	}
	// …but unioning t=1 with t=2 must error cleanly.
	if _, err := store.Count("native", "foreign"); err == nil {
		t.Fatal("Count across t-incompatible sketches succeeded, want error")
	}
	// Same for Merge and MergeBlob.
	if err := store.Merge("dest", "native", "foreign"); err == nil {
		t.Fatal("Merge across t-incompatible sketches succeeded, want error")
	}
	if err := store.MergeBlob("native", blob); err == nil {
		t.Fatal("MergeBlob of t-incompatible blob succeeded, want error")
	}
}

// TestRestoreGarbageBlob: RESTORE of a non-sketch payload errors cleanly.
func TestRestoreGarbageBlob(t *testing.T) {
	store, err := NewStore(core.RecommendedML(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range [][]byte{nil, {0x00}, bytes.Repeat([]byte{0xab}, 100)} {
		if err := store.Restore("k", blob); err == nil {
			t.Errorf("Restore(%d-byte garbage) succeeded, want error", len(blob))
		}
	}
	if store.Len() != 0 {
		t.Errorf("garbage restores created %d keys", store.Len())
	}
}
