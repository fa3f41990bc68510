package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"exaloglog/internal/core"
	"exaloglog/window"
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
					// Only ever try to delete scratch keys; a false
					// return (concurrent write) is fine.
					scratch := func(key string) bool { return strings.HasPrefix(key, "scratch") }
					store.EachTagged(scratch, func(key string, tagged TaggedBlob) {
						store.DeleteIfUnchanged(key, tagged)
					})
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

// TestStoreBatchAllocations: a write of a thousand elements is hashed
// once, into one batch — no hash array grows on the way.
func TestStoreBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	st := newTestStore(t)
	els := make([]string, 1000)
	for i := range els {
		els[i] = fmt.Sprintf("element-%08d", i)
	}
	// The hashes go into a pooled array, not a stack array grown step by
	// step: what is left is the batch's own encoding.
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := st.Batch(els); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Store.Batch of %d elements allocates %.1f times, want at most 2", len(els), allocs)
	}
}

// TestStoreBatchesMatchAdd: the elements of a token batch, through
// AddBatch, AddBatchBytes, WindowAddBatch or WindowAddBatchBytes, leave the
// key Add and WindowAdd of them leave, with the same reply, on a new key and
// on one that holds some of them already. An empty batch is refused and
// creates no key; a key that holds something refuses a batch of another
// configuration and the other value type.
func TestStoreBatchesMatchAdd(t *testing.T) {
	ref, st := newTestStore(t), newTestStore(t)
	els := func(from, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("el-%d", from+i)
		}
		return out
	}
	for i, part := range [][]string{els(0, 3), els(2, 40), els(0, 3), els(100, 5000)} {
		batch, err := st.Batch(part)
		if err != nil {
			t.Fatal(err)
		}
		ts := baseMS + int64(i%2)*1000
		want, _ := ref.Add("p", part...)
		got, err := st.AddBatch("p", &batch)
		gotBytes, errBytes := st.AddBatchBytes([]byte("pb"), &batch)
		if err != nil || errBytes != nil || got != want || gotBytes != want {
			t.Fatalf("part %d: AddBatch %v, %v and AddBatchBytes %v, %v; Add %v", i, got, err, gotBytes, errBytes, want)
		}
		wantN, _ := ref.WindowAdd("w", time.UnixMilli(ts), part...)
		n, err := st.WindowAddBatch("w", ts, &batch, len(part))
		nBytes, errBytes := st.WindowAddBatchBytes([]byte("wb"), ts, &batch, len(part))
		if err != nil || errBytes != nil || n != wantN || nBytes != wantN {
			t.Fatalf("part %d: WindowAddBatch %d, %v and WindowAddBatchBytes %d, %v; WindowAdd %d", i, n, err, nBytes, errBytes, wantN)
		}
		for key, refKey := range map[string]string{"p": "p", "pb": "p", "w": "w", "wb": "w"} {
			got, _ := st.Dump(key)
			want, _ := ref.Dump(refKey)
			if string(got) != string(want) {
				t.Fatalf("part %d: %s holds other bytes than Add's %s", i, key, refKey)
			}
		}
	}
	var empty core.Hybrid
	if err := empty.UnmarshalBinary([]byte("ELT3\x02\x14\x0c\x00")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch("none", &empty); err == nil {
		t.Error("an empty batch was accepted")
	}
	if _, err := st.WindowAddBatchBytes([]byte("none"), baseMS, &empty, 1); err == nil {
		t.Error("an empty window batch was accepted")
	}
	if _, ok := st.Dump("none"); ok {
		t.Error("a refused empty batch created its key")
	}
	other, err := core.MakeBatch(core.RecommendedML(10), []uint64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddBatch("p", &other); err == nil {
		t.Error("a batch of p=10 was absorbed by a p=12 key")
	}
	if _, err := st.WindowAddBatch("w", baseMS, &other, 2); err == nil {
		t.Error("a batch of p=10 was absorbed by a p=12 ring")
	}
	plain, _ := st.Batch([]string{"x"})
	if _, err := st.AddBatch("w", &plain); !errors.Is(err, ErrWrongType) {
		t.Errorf("a plain batch into a window key: %v, want ErrWrongType", err)
	}
	if _, err := st.WindowAddBatchBytes([]byte("p"), baseMS, &plain, 1); !errors.Is(err, ErrWrongType) {
		t.Errorf("a window batch into a plain key: %v, want ErrWrongType", err)
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
	tagged, _ := store.DumpTagged("k")

	store.Add("k", "b") // mutates after dump
	if store.DeleteIfUnchanged("k", tagged) {
		t.Fatal("DeleteIfUnchanged deleted a key mutated after the dump")
	}
	tagged, _ = store.DumpTagged("k")
	if err := store.MergeBlob("k", tagged.Blob); err != nil {
		t.Fatal(err)
	}
	// A same-state merge is a no-op on the registers but still counts
	// as a mutation epoch — refusing is the safe direction.
	if store.DeleteIfUnchanged("k", tagged) {
		t.Fatal("DeleteIfUnchanged deleted a key merged after the dump")
	}
	tagged, _ = store.DumpTagged("k")
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

// TestEstimateCacheInvalidation: a single-key Count never serves a stale
// estimate. The entry keeps no estimate cache; each Count is a fresh
// estimate, equal after every mutation path (Add, Merge, MergeBlob, Restore,
// Delete) to a reference sketch fed the same elements, and a mutating
// add advances the entry's version through changedLocked.
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
	if got, want := count(), ref.Estimate(); got != want {
		t.Fatalf("repeated count = %v, want %v", got, want)
	}
	ver := keyVersion(store, "k")

	// An add that changes the sketch goes through changedLocked: the
	// version advances and the count moves with the sketch.
	store.Add("k", "fresh-element")
	ref.AddString("fresh-element")
	if v := keyVersion(store, "k"); v == ver {
		t.Fatalf("after a mutating add: version still %d", v)
	}
	if got, want := count(), ref.Estimate(); got != want {
		t.Fatalf("count after add = %v, want %v", got, want)
	}

	// An add that does not change the sketch leaves the count as it was.
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

	// A deleted key counts 0.
	store.Delete("k")
	if got := count(); got != 0 {
		t.Fatalf("count after delete = %v, want 0", got)
	}
}

// keyVersion is key's entry version, the store's write sequence number
// at its last change; 0 if the key is missing.
func keyVersion(store *Store, key string) uint64 {
	e := store.lookup(key)
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ver
}

// keyDigest is the store's anti-entropy digest of key, false if the key
// is missing.
func keyDigest(store *Store, key string) (uint64, bool) {
	d := store.ShardKeyDigests(ShardIndex(key), func(k string) bool { return k == key })
	if len(d) == 0 {
		return 0, false
	}
	return d[0].Digest, true
}

// TestShardDigestsAllocateNothingPerKey: a digest sweep serializes every
// key into one reused buffer, so what it allocates does not grow with the
// keys — only the buffers' growth and the result, for 3 000 keys in the
// many-keys mix, filtered or not.
func TestShardDigestsAllocateNothingPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	store := newManyKeysStore(t, 3000)
	for _, filter := range []func(string) bool{nil, func(key string) bool { return key[len(key)-1]&1 == 0 }} {
		if n := testing.AllocsPerRun(3, func() { store.ShardDigests(filter) }); n > 64 {
			t.Errorf("a sweep of 3 000 keys allocates %v times, want at most 64", n)
		}
	}
}

// TestChangeHookKeepsCachesFresh: what is derived from a key's value, its
// count and its digest, is never stale. Every call that changes a key
// goes through the entry's one change hook, changedLocked, which advances
// its version, and one that changes nothing leaves the version alone.
// After each, the next Count and the key's digest equal what a fresh store
// holding the dumped value and deadline computes.
func TestChangeHookKeepsCachesFresh(t *testing.T) {
	const start = 1_000_000
	store, clk := newClockedStore(t, start)
	src := newTestStore(t)
	src.Add("a", "m1", "m2")
	mergeBlob, _ := src.Dump("a")
	src.Add("b", "r1")
	restoreBlob, _ := src.Dump("b")
	store.Add("m", "x1", "x2", "x3")

	add := func(els ...string) func() error {
		return func() error { _, err := store.Add("k", els...); return err }
	}
	addBytes := func(els ...string) func() error {
		return func() error {
			bs := make([][]byte, len(els))
			for i, el := range els {
				bs[i] = []byte(el)
			}
			_, err := store.AddBytes([]byte("k"), bs)
			return err
		}
	}
	wadd := func(el string) func() error {
		return func() error { _, err := store.WindowAdd("w", clk.now(), el); return err }
	}
	steps := []struct {
		name  string
		key   string
		do    func() error
		bumps bool // whether the key's version advances
	}{
		{"Add, new elements", "k", add("e1", "e2"), true},
		{"Add, known element", "k", add("e1"), false},
		{"AddBytes, new element", "k", addBytes("e3"), true},
		{"AddBytes, known elements", "k", addBytes("e2", "e3"), false},
		{"Merge", "k", func() error { return store.Merge("k", "k", "m") }, true},
		{"MergeBlob", "k", func() error { return store.MergeBlob("k", mergeBlob) }, true},
		{"Restore", "k", func() error { return store.Restore("k", restoreBlob) }, true},
		{"ExpireAt", "k", func() error { store.ExpireAt("k", start+60_000); return nil }, true},
		{"Persist", "k", func() error { store.Persist("k"); return nil }, true},
		{"WindowAdd, new key", "w", wadd("w1"), true},
		{"WindowAdd", "w", wadd("w2"), true},
		{"lazy expiry", "k", func() error {
			store.ExpireAt("k", clk.ms.Load()+1000)
			clk.advance(2 * time.Second)
			return nil
		}, true},
		{"Add after expiry", "k", add("e4"), true},
	}
	check := func(step, key string) {
		t.Helper()
		got, _ := store.Count(key) // a window key is ErrWrongType and 0
		ref, _ := newClockedStore(t, clk.ms.Load())
		if blob, ok := store.Dump(key); ok {
			if err := ref.Restore(key, blob); err != nil {
				t.Fatal(err)
			}
			if dl, _ := store.DeadlineOf(key); dl != 0 {
				ref.ExpireAt(key, dl)
			}
		}
		want, _ := ref.Count(key)
		gotDig, gotOK := keyDigest(store, key)
		wantDig, wantOK := keyDigest(ref, key)
		if got != want || gotDig != wantDig || gotOK != wantOK {
			t.Errorf("%s: count %v digest %#x (%v), a fresh recompute gives %v %#x (%v)", step, got, gotDig, gotOK, want, wantDig, wantOK)
		}
	}
	store.Add("k", "e0")
	check("prime", "k")
	for _, st := range steps {
		ver := keyVersion(store, st.key)
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if bumped := keyVersion(store, st.key) != ver; bumped != st.bumps {
			t.Errorf("%s: version advanced %v, want %v", st.name, bumped, st.bumps)
		}
		check(st.name, st.key)
	}
}

// TestInPlaceReplaceUnderRace: Restore and MergeBlob overwrite a plain
// key's sketch in place, inside its entry, so every reader must use the
// sketch only under the entry lock. Two writers alternate a sparse blob a
// and a dense blob b ⊇ a on one key — every state is a or b — while
// PFCOUNT (single-key and through the union path), DUMP and the digest read
// it: every DUMP decodes to one of the two, every count is one of their
// estimates. Run with -race.
func TestInPlaceReplaceUnderRace(t *testing.T) {
	elements := func(prefix string, n int) []string {
		els := make([]string, n)
		for i := range els {
			els[i] = prefix + strconv.Itoa(i)
		}
		return els
	}
	src := newTestStore(t)
	src.Add("a", elements("a", 100)...)
	src.Add("b", elements("a", 100)...)
	src.Add("b", elements("b", 50_000)...)
	a, _ := src.Dump("a")
	b, _ := src.Dump("b")
	if !core.IsTokenBlob(a) || core.IsTokenBlob(b) {
		t.Fatal("want a sparse blob a and a dense blob b")
	}
	estimates := map[float64]bool{}
	digests := map[uint64]bool{}
	for _, blob := range [][]byte{a, b} {
		ref := newTestStore(t)
		ref.Restore("k", blob)
		n, _ := ref.Count("k")
		d, _ := keyDigest(ref, "k")
		estimates[n], digests[d] = true, true
	}
	oneOf := func(what string, n float64) error {
		if !estimates[n] {
			return fmt.Errorf("%s %v, want one of %v", what, n, estimates)
		}
		return nil
	}

	store := newTestStore(t)
	store.Restore("k", a)
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for _, blobs := range [][2][]byte{{a, b}, {b, a}} {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				if err := errors.Join(store.Restore("k", blobs[0]), store.MergeBlob("k", blobs[1])); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for _, read := range []func() error{
		func() error { n, err := store.Count("k"); return errors.Join(err, oneOf("PFCOUNT", n)) },
		func() error {
			n, err := store.Count("k", "missing")
			return errors.Join(err, oneOf("union PFCOUNT", n))
		},
		func() error {
			blob, _ := store.Dump("k")
			h, err := core.HybridFromBinary(blob)
			if err != nil {
				return fmt.Errorf("DUMP does not decode: %w", err)
			}
			return oneOf("DUMP estimate", h.Estimate())
		},
		func() error {
			if d, _ := keyDigest(store, "k"); !digests[d] {
				return fmt.Errorf("digest %#x is neither blob's", d)
			}
			return nil
		},
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestNewKeyAllocations pins what creating a key allocates at each entry
// point. A plain key is the entry, which holds the sketch, and the first
// token array — whether the key is created by an insert or by a blob
// decoded straight into it. A Go caller's key string becomes the map key
// as it is; a byte-slice key costs its one copy more. A window key adds its
// ring. And a union count of 16 keys allocates nothing.
func TestNewKeyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	store := newTestStore(t)
	src := newTestStore(t)
	src.Add("src", "a", "b", "c")
	blob, _ := src.Dump("src")
	if !core.IsTokenBlob(blob) {
		t.Fatal("want an ELT3 blob")
	}
	batch, err := store.Batch([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	key, els := []byte("fresh"), [][]byte{[]byte("x")}
	for _, c := range []struct {
		name string
		add  func()
		want float64
	}{
		{"Add", func() { store.Add("fresh", "x") }, 2},
		{"AddBytes", func() { store.AddBytes(key, els) }, 3},
		{"AddBatch", func() { store.AddBatch("fresh", &batch) }, 2},
		{"AddBatchBytes", func() { store.AddBatchBytes(key, &batch) }, 3},
		{"MergeBlob", func() { store.MergeBlob("fresh", blob) }, 2},
		{"Restore", func() { store.Restore("fresh", blob) }, 2},
		{"WindowAdd", func() { store.WindowAdd("fresh", time.UnixMilli(baseMS), "x") }, 4},
		{"WindowAddBytes", func() { store.WindowAddBytes(key, baseMS, els) }, 5},
	} {
		if n := testing.AllocsPerRun(100, func() { c.add(); store.Delete("fresh") }); n != c.want {
			t.Errorf("%s of a new key: %.0f allocations, want %.0f", c.name, n, c.want)
		}
	}
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "k%d", i)
		store.AddBytes(keys[i], els)
	}
	if n := testing.AllocsPerRun(100, func() { store.CountBytes(keys) }); n != 0 {
		t.Errorf("CountBytes of %d keys: %.0f allocations, want 0", len(keys), n)
	}
}

// TestLineKeysAreCopied: a key created from a caller's bytes — through a
// byte-slice Store method or a command line — is the store's own copy.
// Overwriting the bytes afterwards changes no key, count or WINFO. Under
// -race, checkptr also checks the string views the store takes of them.
func TestLineKeysAreCopied(t *testing.T) {
	store := newTestStore(t)
	srv := NewServer(store)
	batch, err := store.Batch([]string{"y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("plain wind batch wbat")
	el := [][]byte{buf[:5]}
	_, err1 := store.AddBytes(buf[:5], el)
	_, err2 := store.WindowAddBytes(buf[6:10], baseMS, el)
	_, err3 := store.AddBatchBytes(buf[11:16], &batch)
	_, err4 := store.WindowAddBatchBytes(buf[17:21], baseMS, &batch, 2)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		t.Fatal(err)
	}
	// The lines are read into the connection's buffers; the reader keeps
	// hold of those, so the test can overwrite what the keys were parsed
	// from.
	lines := &recordingReader{data: []byte(fmt.Sprintf("PFADD line-p a b\nWADD line-w %d a b\nPFADD plain c\n", baseMS))}
	srv.ServeStream(lines, io.Discard)

	// What the store holds, rendered into a string of the test's own: a
	// retained view would change under the overwrite along with the store.
	state := func() string {
		var b strings.Builder
		for _, k := range store.Keys() {
			n, err := store.Count(k)
			info, _ := store.Info(k)
			if errors.Is(err, ErrWrongType) {
				n, err = store.WindowCount(k, time.Minute, time.Time{})
				info, _, _ = store.WindowInfo(k)
			}
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %.3f %s\n", k, n, info)
		}
		return b.String()
	}
	before := state()
	for _, want := range []string{"batch", "line-p", "line-w", "plain", "wbat", "wind"} {
		if !strings.Contains(before, want+" ") {
			t.Fatalf("no key %q in\n%s", want, before)
		}
	}
	for _, b := range append(lines.read, buf) {
		for i := range b {
			b[i] = 'X'
		}
	}
	if after := state(); after != before {
		t.Errorf("overwriting the callers' bytes changed the store:\nbefore\n%s\nafter\n%s", before, after)
	}
}

// recordingReader serves data and records every buffer it read into.
type recordingReader struct {
	data []byte
	read [][]byte
}

func (r *recordingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	r.read = append(r.read, p[:n])
	return n, nil
}

// TestEntryDispatchesOnItsType covers the paths that branch on a key's value
// type: a blob of either type merged or restored into a fresh key of the
// other type takes the key over (MergeBlob adopts it because the key is
// still empty), and then DUMP, DumpTagged, EachTagged, INFO, the typed
// verbs and the resident-bytes gauge all follow the new type; a blob of the
// other type is refused by a key that holds something.
func TestEntryDispatchesOnItsType(t *testing.T) {
	src := newTestStore(t)
	if _, err := src.Add("plain", "alice", "bob", "carol"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WindowAdd("ring", time.UnixMilli(baseMS), "alice", "bob"); err != nil {
		t.Fatal(err)
	}
	type value struct {
		tag  byte
		blob []byte
		info string
	}
	var values []value
	for key, v := range map[string]value{
		"plain": {tag: valueTagEll, info: "t=2 d=20 p=12 mode=sparse tokens=3 bytes=7 estimate=3.0"},
		"ring":  {tag: valueTagWindow, info: "type=window slice=1s slices=60 span=1m0s"},
	} {
		blob, ok := src.Dump(key)
		if !ok || window.IsSerialized(blob) != (v.tag == valueTagWindow) {
			t.Fatalf("%s: DUMP %q is not a %q blob", key, blob, v.tag)
		}
		v.blob = blob
		values = append(values, v)
	}
	// What a key created from the blob costs the gauge: a missing key restored.
	resident := func(v value) int64 {
		st := newTestStore(t)
		if err := st.Restore("k", v.blob); err != nil {
			t.Fatal(err)
		}
		_, _, n := st.LifecycleStats()
		return n
	}
	for _, v := range values {
		want := resident(v)
		for _, route := range []string{"MergeBlob", "Restore"} {
			st := newTestStore(t)
			// A fresh, empty key of the other type.
			if v.tag == valueTagEll {
				_, err := st.WindowAdd("k", time.UnixMilli(baseMS))
				if err != nil {
					t.Fatal(err)
				}
			} else if err := st.Merge("k"); err != nil {
				t.Fatal(err)
			}
			var err error
			if route == "MergeBlob" {
				err = st.MergeBlob("k", v.blob)
			} else {
				err = st.Restore("k", v.blob)
			}
			if err != nil {
				t.Fatalf("%s of a %q blob into a fresh key of the other type: %v", route, v.tag, err)
			}
			name := fmt.Sprintf("%s of a %q blob", route, v.tag)
			if got, _ := st.Dump("k"); !bytes.Equal(got, v.blob) {
				t.Errorf("%s: DUMP is not the blob", name)
			}
			if tagged, _ := st.DumpTagged("k"); !bytes.Equal(tagged.Blob, v.blob) {
				t.Errorf("%s: DumpTagged is not the blob", name)
			}
			each := 0
			st.EachTagged(func(string) bool { return true }, func(key string, tagged TaggedBlob) {
				if each++; key != "k" || !bytes.Equal(tagged.Blob, v.blob) {
					t.Errorf("%s: EachTagged gave %q and not the blob", name, key)
				}
			})
			if each != 1 {
				t.Errorf("%s: EachTagged gave %d keys, want 1", name, each)
			}
			if info, _ := st.Info("k"); !strings.HasPrefix(info, v.info) {
				t.Errorf("%s: INFO %q, want it to start %q", name, info, v.info)
			}
			_, countErr := st.Count("k")
			_, windowErr := st.WindowCount("k", time.Minute, time.Time{})
			if plain := v.tag == valueTagEll; errors.Is(countErr, ErrWrongType) == plain || errors.Is(windowErr, ErrWrongType) != plain {
				t.Errorf("%s: PFCOUNT error %v, WCOUNT error %v", name, countErr, windowErr)
			}
			if _, _, got := st.LifecycleStats(); got != want {
				t.Errorf("%s: resident_bytes %d, a key restored from the blob %d", name, got, want)
			}
		}
	}
	// A key that holds something keeps its type.
	st := newTestStore(t)
	if _, err := st.Add("plain", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WindowAdd("ring", time.UnixMilli(baseMS), "x"); err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		key := map[byte]string{valueTagEll: "ring", valueTagWindow: "plain"}[v.tag]
		if err := st.MergeBlob(key, v.blob); !errors.Is(err, ErrWrongType) {
			t.Errorf("a %q blob into the non-empty %s key: %v, want ErrWrongType", v.tag, key, err)
		}
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
