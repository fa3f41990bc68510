package server

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"exaloglog/internal/core"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	store, err := NewStore(core.RecommendedML(12))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestStoreShardedConcurrency hammers the sharded store from many
// goroutines with overlapping key sets — every worker writes both its
// own keys and a shared set, interleaved with counts, merges, deletes
// and tagged dumps — and then checks that every surviving element is
// accounted for. Run under -race this is the store's memory-model
// test; the final count checks that no write was lost to a lock gap
// (e.g. an add racing a delete into an orphaned entry).
func TestStoreShardedConcurrency(t *testing.T) {
	store := newTestStore(t)
	const (
		workers = 16
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := fmt.Sprintf("own-%d", w)
			for i := 0; i < perW; i++ {
				el := fmt.Sprintf("w%d-e%d", w, i)
				store.Add("shared", el)
				store.Add(own, el)
				switch i % 100 {
				case 10:
					if _, err := store.Count("shared", own); err != nil {
						t.Error(err)
						return
					}
				case 30:
					if err := store.Merge("merged", own); err != nil {
						t.Error(err)
						return
					}
				case 50:
					store.Delete(fmt.Sprintf("scratch-%d", w))
					store.Add(fmt.Sprintf("scratch-%d", w), el)
				case 70:
					for key, tagged := range store.DumpAllTagged() {
						// Only ever try to delete scratch keys; a
						// false return (concurrent write) is fine.
						if len(key) > 7 && key[:7] == "scratch" {
							store.DeleteIfUnchanged(key, tagged)
						}
					}
				case 90:
					store.Keys()
					store.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	// Every worker added its full element set to both "shared" and its
	// own key; none of those keys are ever deleted, so the counts must
	// reflect all workers*perW distinct elements.
	want := float64(workers * perW)
	got, err := store.Count("shared")
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Errorf("shared count = %.0f, want ≈%.0f", got, want)
	}
	keys := []string{"shared"}
	for w := 0; w < workers; w++ {
		keys = append(keys, fmt.Sprintf("own-%d", w))
	}
	union, err := store.Count(keys...)
	if err != nil {
		t.Fatal(err)
	}
	if union != got {
		t.Errorf("union over identical content %.0f != %.0f", union, got)
	}
}

// TestStoreAddDeleteRace interleaves adds and deletes of the same key:
// an add must either land before a delete (gone afterwards) or
// recreate the key, never write into an unlinked sketch.
func TestStoreAddDeleteRace(t *testing.T) {
	store := newTestStore(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				if w%2 == 0 {
					store.Add("contested", fmt.Sprintf("w%d-e%d", w, i))
				} else {
					store.Delete("contested")
				}
			}
		}(w)
	}
	wg.Wait()
	// Terminal add must be visible: the key exists and counts.
	store.Add("contested", "final")
	n, err := store.Count("contested")
	if err != nil {
		t.Fatal(err)
	}
	if n < 0.5 {
		t.Errorf("count after terminal add = %f, want ≈1 or more", n)
	}
}

// TestStoreAddBytesMatchesAdd checks the byte-slice fast path produces
// the same sketch state as the string path, and does not retain its
// argument slices.
func TestStoreAddBytesMatchesAdd(t *testing.T) {
	a, b := newTestStore(t), newTestStore(t)
	key := []byte("k")
	el := make([]byte, 0, 16)
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("el-%04d", i)
		changed, err := a.Add("k", s)
		if err != nil {
			t.Fatal(err)
		}
		el = append(el[:0], s...)
		if got, err := b.AddBytes(key, [][]byte{el}); err != nil || got != changed {
			t.Fatalf("AddBytes(%q) changed = %v (%v), Add = %v", s, got, err, changed)
		}
		// Scribble over the reused slices; the store must not care.
		for j := range el {
			el[j] = 0xff
		}
	}
	da, _ := a.Dump("k")
	db, _ := b.Dump("k")
	if string(da) != string(db) {
		t.Error("AddBytes produced different sketch state than Add")
	}
	na, _ := a.Count("k")
	nb, err := b.CountBytes([][]byte{[]byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Errorf("CountBytes = %.1f, Count = %.1f", nb, na)
	}
}

// TestStoreCountCrossConfig pins the accumulator fallback paths: a
// lone foreign-config key counts on its own, mixes with native keys
// via reduction when t matches, and errors when t differs.
func TestStoreCountCrossConfig(t *testing.T) {
	store := newTestStore(t)
	foreign := core.MustNew(core.Config{T: 2, D: 20, P: 10})
	for i := 0; i < 500; i++ {
		foreign.AddString(fmt.Sprintf("f-%d", i))
	}
	blob, _ := foreign.MarshalBinary()
	if err := store.Restore("foreign", blob); err != nil {
		t.Fatal(err)
	}
	n, err := store.Count("foreign")
	if err != nil {
		t.Fatal(err)
	}
	if n < 400 || n > 600 {
		t.Errorf("foreign-only count = %.0f, want ≈500", n)
	}
	store.Add("native", "f-0", "extra")
	union, err := store.Count("foreign", "native")
	if err != nil {
		t.Fatal(err)
	}
	if union < 400 || union > 620 {
		t.Errorf("cross-config union = %.0f, want ≈501", union)
	}
	otherT := core.MustNew(core.Config{T: 0, D: 2, P: 10})
	otherT.AddString("x")
	blobT, _ := otherT.MarshalBinary()
	if err := store.Restore("ull", blobT); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Count("ull", "native"); err == nil {
		t.Error("counting across different t succeeded, want error")
	}
	// The failed count must not have poisoned the pooled accumulator.
	if n, err := store.Count("native"); err != nil || math.Abs(n-2) > 0.5 {
		t.Errorf("count after failed cross-t count = %f, %v; want ≈2, nil", n, err)
	}
}

// TestStoreMergeFailureLeavesNoDest: a PFMERGE that fails on a
// t-incompatible source must not leave an empty destination key
// behind as a side effect of the attempt.
func TestStoreMergeFailureLeavesNoDest(t *testing.T) {
	store := newTestStore(t)
	otherT := core.MustNew(core.Config{T: 0, D: 2, P: 10})
	otherT.AddString("x")
	blob, _ := otherT.MarshalBinary()
	if err := store.Restore("ull", blob); err != nil {
		t.Fatal(err)
	}
	if err := store.Merge("fresh-dest", "ull"); err == nil {
		t.Fatal("cross-t merge succeeded")
	}
	if _, ok := store.Dump("fresh-dest"); ok {
		t.Error("failed merge created an empty destination key")
	}
	// An existing dest stays unchanged on failure.
	store.Add("existing", "a")
	if err := store.Merge("existing", "ull"); err == nil {
		t.Fatal("cross-t merge into existing dest succeeded")
	}
	if n, err := store.Count("existing"); err != nil || math.Abs(n-1) > 0.5 {
		t.Errorf("existing dest after failed merge: count %f, %v", n, err)
	}
}

// TestStoreMergeConcurrentWithAdds checks the in-place dest fold: a
// write racing Merge is never lost (the old implementation replaced
// dest with a precomputed union, dropping concurrent adds).
func TestStoreMergeConcurrentWithAdds(t *testing.T) {
	store := newTestStore(t)
	for i := 0; i < 1000; i++ {
		store.Add("src", fmt.Sprintf("s-%d", i))
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			store.Add("dest", fmt.Sprintf("d-%d", i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := store.Merge("dest", "src"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	n, err := store.Count("dest")
	if err != nil {
		t.Fatal(err)
	}
	want := 2000.0
	if rel := math.Abs(n-want) / want; rel > 0.05 {
		t.Errorf("dest count = %.0f, want ≈%.0f (lost writes?)", n, want)
	}
}

// TestDeleteIfUnchangedVersioning pins the tagged-dump contract on the
// sharded store: any mutation after the dump (add, merge-blob,
// restore) must make DeleteIfUnchanged refuse.
func TestDeleteIfUnchangedVersioning(t *testing.T) {
	store := newTestStore(t)
	store.Add("k", "a")
	tagged := store.DumpAllTagged()["k"]

	store.Add("k", "b") // mutates after dump
	if store.DeleteIfUnchanged("k", tagged) {
		t.Fatal("DeleteIfUnchanged deleted a key mutated after the dump")
	}
	tagged = store.DumpAllTagged()["k"]
	if err := store.MergeBlob("k", tagged.Blob); err != nil {
		t.Fatal(err)
	}
	// A same-state merge is a no-op on the registers but still counts
	// as a mutation epoch — refusing is the safe direction.
	if store.DeleteIfUnchanged("k", tagged) {
		t.Fatal("DeleteIfUnchanged deleted a key merged after the dump")
	}
	tagged = store.DumpAllTagged()["k"]
	if !store.DeleteIfUnchanged("k", tagged) {
		t.Fatal("DeleteIfUnchanged refused an unmutated key")
	}
	if _, ok := store.Dump("k"); ok {
		t.Fatal("key still present after DeleteIfUnchanged")
	}
	// Deleting an absent key counts as done.
	if !store.DeleteIfUnchanged("k", tagged) {
		t.Fatal("DeleteIfUnchanged of absent key = false")
	}
}

// TestEstimateCacheInvalidation pins the per-entry cached Estimate: a
// repeated single-key Count is served from the cache, every mutation
// path (Add, Merge, MergeBlob, Restore) invalidates it via the entry
// version counter, and the cached value always equals a reference
// sketch fed the same elements.
func TestEstimateCacheInvalidation(t *testing.T) {
	store := newTestStore(t)
	ref := core.MustNew(store.Config())
	count := func() float64 {
		t.Helper()
		got, err := store.Count("k")
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	for i := 0; i < 1000; i++ {
		el := fmt.Sprintf("el-%d", i)
		store.Add("k", el)
		ref.AddString(el)
	}
	if got, want := count(), ref.Estimate(); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}
	// The cache is now primed; white-box check that it holds.
	e := store.lookup("k")
	e.mu.Lock()
	if !e.estValid || e.estVer != e.ver {
		t.Fatalf("cache not primed after Count: valid=%v estVer=%d ver=%d", e.estValid, e.estVer, e.ver)
	}
	cachedVer := e.estVer
	e.mu.Unlock()
	if got, want := count(), ref.Estimate(); got != want {
		t.Fatalf("cached count = %v, want %v", got, want)
	}

	// An add that changes the sketch must invalidate and recompute.
	store.Add("k", "fresh-element")
	ref.AddString("fresh-element")
	if got, want := count(), ref.Estimate(); got != want {
		t.Fatalf("count after add = %v, want %v (stale cache served)", got, want)
	}
	e.mu.Lock()
	if e.estVer == cachedVer {
		t.Fatal("cache version did not advance after a mutating add")
	}
	e.mu.Unlock()

	// An add that does NOT change the sketch keeps the cache valid —
	// and correct, since the estimate cannot have moved.
	store.Add("k", "fresh-element")
	if got, want := count(), ref.Estimate(); got != want {
		t.Fatalf("count after idempotent add = %v, want %v", got, want)
	}

	// Merge, MergeBlob and Restore all route through the version bump.
	store.Add("other", "a", "b", "c")
	if err := store.Merge("k", "k", "other"); err != nil {
		t.Fatal(err)
	}
	ref.AddString("a")
	ref.AddString("b")
	ref.AddString("c")
	if got, want := count(), ref.Estimate(); got != want {
		t.Fatalf("count after Merge = %v, want %v", got, want)
	}
	blob, _ := store.Dump("other")
	if err := store.MergeBlob("k", blob); err != nil {
		t.Fatal(err)
	}
	if got, want := count(), ref.Estimate(); got != want {
		t.Fatalf("count after MergeBlob = %v, want %v", got, want)
	}
	fresh := core.MustNew(store.Config())
	fresh.AddString("only")
	fblob, _ := fresh.MarshalBinary()
	if err := store.Restore("k", fblob); err != nil {
		t.Fatal(err)
	}
	if got, want := count(), fresh.Estimate(); got != want {
		t.Fatalf("count after Restore = %v, want %v", got, want)
	}

	// Deleted key: the cache dies with the entry.
	store.Delete("k")
	if got := count(); got != 0 {
		t.Fatalf("count after delete = %v, want 0", got)
	}
}

// TestSingleKeyCountMatchesUnionPath: the single-key fast path and the
// multi-key accumulator path must agree exactly, including for keys
// with a foreign configuration introduced by Restore.
func TestSingleKeyCountMatchesUnionPath(t *testing.T) {
	store := newTestStore(t)
	for i := 0; i < 500; i++ {
		store.Add("k", fmt.Sprintf("el-%d", i))
	}
	single, err := store.Count("k")
	if err != nil {
		t.Fatal(err)
	}
	viaUnion, err := store.Count("k", "missing")
	if err != nil {
		t.Fatal(err)
	}
	if single != viaUnion {
		t.Fatalf("single-key count %v != union-path count %v", single, viaUnion)
	}

	foreign := core.MustNew(core.Config{T: 2, D: 20, P: 10})
	foreign.AddString("x")
	blob, _ := foreign.MarshalBinary()
	if err := store.Restore("f", blob); err != nil {
		t.Fatal(err)
	}
	got, err := store.Count("f")
	if err != nil {
		t.Fatal(err)
	}
	if want := foreign.Estimate(); got != want {
		t.Fatalf("foreign-config single-key count %v, want %v", got, want)
	}
}

// TestSparseKeysThroughTheStore walks one key's life through every door
// of the store: it starts as hash tokens, answers every count with the
// float a dense reference sketch gives, travels as a token blob through
// DUMP, RESTORE, MergeBlob and PFMERGE without turning dense, and turns
// dense — for good, and with the raw core bytes — at break-even.
func TestSparseKeysThroughTheStore(t *testing.T) {
	store := newTestStore(t)
	ref := core.MustNew(store.Config())
	info := func(key string) string {
		s, ok := store.Info(key)
		if !ok {
			t.Fatalf("no INFO for %s", key)
		}
		return s
	}
	check := func(key string, where string) {
		t.Helper()
		single, err := store.Count(key)
		if err != nil {
			t.Fatal(err)
		}
		union, err := store.Count(key, "missing")
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Estimate(); single != want || union != want {
			t.Fatalf("%s: count %v, via the union path %v, reference sketch %v", where, single, union, want)
		}
	}

	// The changed bit while sparse: a new token was recorded.
	if changed, _ := store.Add("k", "a"); !changed {
		t.Error("first element reported no change")
	}
	if changed, _ := store.Add("k", "a"); changed {
		t.Error("a repeated element reported a change")
	}
	ref.AddString("a")
	for i := 0; i < 999; i++ {
		el := fmt.Sprintf("el-%d", i)
		store.Add("k", el)
		ref.AddString(el)
	}
	check("k", "1000 elements")
	// 11 of the 1000 elements share their register and update value — their
	// token — with another: 989 tokens, 8.07 bits each (l = 4: 989+1024
	// quotient bits, 989 4-bit remainders, 2011 bits of unary NLZs).
	if got := info("k"); !strings.Contains(got, "mode=sparse tokens=989 bytes=998 ") {
		t.Errorf("INFO %q, want mode=sparse tokens=989 bytes=998", got)
	}

	blob, _ := store.Dump("k")
	if !core.IsTokenBlob(blob) || len(blob) != 7+2+998 { // header, 989 as a varint, body
		t.Fatalf("DUMP of a sparse key: %d bytes, token blob %v", len(blob), core.IsTokenBlob(blob))
	}
	if err := store.Restore("copy", blob); err != nil {
		t.Fatal(err)
	}
	if err := store.MergeBlob("merged", blob); err != nil {
		t.Fatal(err)
	}
	if err := store.MergeBlob("merged", blob); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := store.Merge("union", "k", "copy", "missing"); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"copy", "merged", "union"} {
		check(key, key)
		if again, _ := store.Dump(key); !bytes.Equal(again, blob) {
			t.Errorf("%s: blob differs from the source key's (%s)", key, info(key))
		}
	}

	// Still sparse where 20-bit tokens had long been dense.
	for i := 0; i < 6000; i++ {
		el := fmt.Sprintf("mid-%d", i)
		store.Add("k", el)
		ref.AddString(el)
	}
	check("k", "7000 elements")
	if got := info("k"); !strings.Contains(got, "mode=sparse tokens=6511 bytes=4312 ") {
		t.Errorf("INFO %q, want mode=sparse tokens=6511 bytes=4312", got)
	}
	// Crossing break-even (about 30 000 tokens at p=12, which takes some
	// 45 000 elements): dense, the raw core format.
	for i := 0; i < 43000; i++ {
		el := fmt.Sprintf("more-%d", i)
		store.Add("k", el)
		ref.AddString(el)
	}
	check("k", "50000 elements")
	if got := info("k"); !strings.Contains(got, "mode=dense bytes=14336 ") {
		t.Errorf("INFO %q, want mode=dense bytes=14336", got)
	}
	dense, _ := store.Dump("k")
	if want, _ := ref.MarshalBinary(); !bytes.Equal(dense, want) {
		t.Error("DUMP of a dense key is not the reference sketch's MarshalBinary")
	}
	// Sparse into dense and dense into sparse both end dense and equal.
	if err := store.MergeBlob("copy", dense); err != nil {
		t.Fatal(err)
	}
	if err := store.MergeBlob("k", blob); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k", "copy"} {
		if got, _ := store.Dump(key); !bytes.Equal(got, dense) {
			t.Errorf("%s after a mixed-mode merge differs from the dense key", key)
		}
	}
}
