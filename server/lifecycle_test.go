package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"exaloglog/internal/core"
)

// fakeClock is a deterministic store time source for lifecycle tests.
type fakeClock struct{ ms atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.UnixMilli(c.ms.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ms.Add(d.Milliseconds()) }

func newClockedStore(t *testing.T, startMillis int64) (*Store, *fakeClock) {
	t.Helper()
	store := newTestStore(t)
	clk := &fakeClock{}
	clk.ms.Store(startMillis)
	store.SetClock(clk.now)
	return store, clk
}

// expire sets key's deadline ttl past the store clock's now; it reports
// whether the key existed.
func expire(s *Store, key string, ttl time.Duration) bool {
	return s.ExpireAt(key, s.NowMillis()+ttl.Milliseconds())
}

// TestExpireLazyCollection: an expired key behaves exactly like a
// missing one on every read path, and the lazy collection shows up in
// the lifecycle gauges.
func TestExpireLazyCollection(t *testing.T) {
	store, clk := newClockedStore(t, 1_000_000)
	if _, err := store.Add("session", "alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if !expire(store, "session", 5*time.Second) {
		t.Fatal("Expire on a live key returned false")
	}
	if dl, ok := store.DeadlineOf("session"); !ok || dl != 1_005_000 {
		t.Fatalf("DeadlineOf = %d, %v; want 1005000, true", dl, ok)
	}
	if n, _ := store.Count("session"); n < 1 {
		t.Fatalf("pre-deadline count = %v, want ≥1", n)
	}
	clk.advance(5 * time.Second) // exactly at the deadline: due
	if n, err := store.Count("session"); err != nil || n != 0 {
		t.Errorf("post-deadline count = %v, %v; want 0 (missing)", n, err)
	}
	if _, ok := store.Dump("session"); ok {
		t.Error("Dump returned an expired key")
	}
	if _, ok := store.DeadlineOf("session"); ok {
		t.Error("DeadlineOf saw an expired key")
	}
	for _, k := range store.Keys() {
		if k == "session" {
			t.Error("Keys listed an expired key")
		}
	}
	expired, _, _ := store.LifecycleStats()
	if expired != 1 {
		t.Errorf("expired_keys = %d, want 1", expired)
	}
}

// TestExpiredCountNoGhostEstimate: once a counted key expires, a read
// must never count its pre-expiry sketch. The dead mark and the version
// bump happen atomically under the entry lock, so even a reader that
// already holds the entry pointer re-checks and sees a dead sketch.
func TestExpiredCountNoGhostEstimate(t *testing.T) {
	store, clk := newClockedStore(t, 1_000_000)
	for i := 0; i < 256; i++ {
		if _, err := store.Add("hot", fmt.Sprintf("el-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if !expire(store, "hot", time.Second) {
		t.Fatal("Expire failed")
	}
	n, err := store.Count("hot")
	if err != nil || n < 100 {
		t.Fatalf("count before the deadline = %v, %v", n, err)
	}
	if n2, _ := store.Count("hot"); n2 != n {
		t.Fatalf("repeated count %v != %v", n2, n)
	}
	clk.advance(time.Second)
	if got, err := store.Count("hot"); err != nil || got != 0 {
		t.Errorf("count after expiry = %v, %v; want 0, nil — ghost estimate served", got, err)
	}
	// The recreated key starts empty: the old sketch must not leak in.
	if _, err := store.Add("hot", "solo"); err != nil {
		t.Fatal(err)
	}
	if got, _ := store.Count("hot"); got > 2 {
		t.Errorf("recreated key counts %v, want ≈1 — pre-expiry state leaked", got)
	}
}

// TestDeleteIfUnchangedExpiryRace is the satellite-2 regression: a
// rebalance tag dumped before a key's deadline must not delete the key
// after it expired and was recreated — and setting the deadline itself
// is a version bump, so even the un-expired key is "changed".
func TestDeleteIfUnchangedExpiryRace(t *testing.T) {
	store, clk := newClockedStore(t, 1_000_000)
	if _, err := store.Add("contested", "original"); err != nil {
		t.Fatal(err)
	}
	tag, ok := store.DumpTagged("contested")
	if !ok {
		t.Fatal("DumpTagged missed the key")
	}
	// EXPIRE after the dump bumps the version: the tag is stale.
	if !expire(store, "contested", time.Second) {
		t.Fatal("Expire failed")
	}
	if store.DeleteIfUnchanged("contested", tag) {
		t.Fatal("stale tag deleted a key whose lifetime changed after the dump")
	}
	// Now let it expire and recreate it: the old tag must not touch the
	// successor.
	tag2, _ := store.DumpTagged("contested")
	clk.advance(2 * time.Second)
	if _, err := store.Add("contested", "successor"); err != nil {
		t.Fatal(err)
	}
	if store.DeleteIfUnchanged("contested", tag2) {
		t.Fatal("pre-expiry tag deleted the recreated key")
	}
	if n, _ := store.Count("contested"); n < 0.5 {
		t.Errorf("recreated key count = %v, want ≈1", n)
	}
}

// TestPersistCancelsDeadline: PERSIST removes the deadline and the key
// survives it; a second PERSIST reports nothing to remove.
func TestPersistCancelsDeadline(t *testing.T) {
	store, clk := newClockedStore(t, 1_000_000)
	if _, err := store.Add("k", "a"); err != nil {
		t.Fatal(err)
	}
	if store.Persist("k") {
		t.Error("Persist on a key without a deadline returned true")
	}
	expire(store, "k", time.Second)
	if !store.Persist("k") {
		t.Error("Persist on a deadlined key returned false")
	}
	clk.advance(time.Hour)
	if n, _ := store.Count("k"); n < 0.5 {
		t.Errorf("persisted key expired anyway (count %v)", n)
	}
}

// TestDefaultTTL: with a default TTL every created key gets a deadline
// stamped at creation; writes do not extend it; PERSIST lifts it.
func TestDefaultTTL(t *testing.T) {
	store, clk := newClockedStore(t, 1_000_000)
	store.SetDefaultTTL(10 * time.Second)
	if _, err := store.Add("ephemeral", "a"); err != nil {
		t.Fatal(err)
	}
	if dl, ok := store.DeadlineOf("ephemeral"); !ok || dl != 1_010_000 {
		t.Fatalf("default-TTL deadline = %d, %v; want 1010000, true", dl, ok)
	}
	clk.advance(9 * time.Second)
	if _, err := store.Add("ephemeral", "b"); err != nil { // write does not extend
		t.Fatal(err)
	}
	if _, err := store.Add("pinned", "x"); err != nil {
		t.Fatal(err)
	}
	if !store.Persist("pinned") {
		t.Fatal("Persist on a default-TTL key failed")
	}
	clk.advance(2 * time.Second)
	if n, _ := store.Count("ephemeral"); n != 0 {
		t.Errorf("default-TTL key survived its creation deadline (count %v)", n)
	}
	if n, _ := store.Count("pinned"); n < 0.5 {
		t.Errorf("persisted key expired (count %v)", n)
	}
	// A key recreated after expiry gets a fresh default deadline.
	if _, err := store.Add("ephemeral", "again"); err != nil {
		t.Fatal(err)
	}
	if dl, ok := store.DeadlineOf("ephemeral"); !ok || dl <= 1_011_000 {
		t.Errorf("recreated key deadline = %d, %v; want fresh stamp", dl, ok)
	}
}

// TestSweepExpired: the background sweeper reclaims due keys nobody
// reads. A full scan collects everything; the gauges account for it.
func TestSweepExpired(t *testing.T) {
	store, clk := newClockedStore(t, 1_000_000)
	const n = 200
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("ttl-%d", i)
		if _, err := store.Add(key, "x"); err != nil {
			t.Fatal(err)
		}
		if !expire(store, key, time.Duration(1+i%5)*time.Second) {
			t.Fatal("Expire failed")
		}
	}
	if _, err := store.Add("forever", "x"); err != nil {
		t.Fatal(err)
	}
	if got := store.SweepExpired(0); got != 0 {
		t.Fatalf("sweep before any deadline collected %d keys", got)
	}
	clk.advance(5 * time.Second)
	if got := store.SweepExpired(0); got != n {
		t.Errorf("full sweep collected %d keys, want %d", got, n)
	}
	if store.Len() != 1 {
		t.Errorf("Len = %d after sweep, want 1", store.Len())
	}
	expired, _, _ := store.LifecycleStats()
	if expired != n {
		t.Errorf("expired_keys = %d, want %d", expired, n)
	}
	// Sampled sweeps converge over repeated ticks instead of scanning
	// everything at once.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("ttl2-%d", i)
		store.Add(key, "x")
		expire(store, key, time.Second)
	}
	clk.advance(2 * time.Second)
	collected, ticks := 0, 0
	for ; collected < n && ticks < 100; ticks++ {
		collected += store.SweepExpired(2)
	}
	if collected != n {
		t.Errorf("sampled sweeps collected %d/%d after %d ticks", collected, n, ticks)
	}
}

// TestEvictToWatermark: above the high watermark the store sheds the
// coldest keys (least recently written) until resident bytes reach the
// low watermark; recently-written keys survive.
func TestEvictToWatermark(t *testing.T) {
	store, _ := newClockedStore(t, 1_000_000)
	const n = 32
	for i := 0; i < n; i++ {
		if _, err := store.Add(fmt.Sprintf("k-%d", i), "seed"); err != nil {
			t.Fatal(err)
		}
	}
	// Heat up the upper half with later writes: higher versions.
	for i := n / 2; i < n; i++ {
		for j := 0; j < 4; j++ {
			store.Add(fmt.Sprintf("k-%d", i), fmt.Sprintf("w-%d", j))
		}
	}
	_, _, resident := store.LifecycleStats()
	if resident <= 0 {
		t.Fatalf("resident_bytes = %d, want > 0", resident)
	}
	per := resident / n
	store.SetMemoryWatermarks(resident-1, resident-8*per)
	evicted := store.EvictToWatermark()
	if evicted == 0 {
		t.Fatal("no keys evicted above the high watermark")
	}
	_, evictedGauge, after := store.LifecycleStats()
	if evictedGauge != uint64(evicted) {
		t.Errorf("evicted_keys gauge %d != returned %d", evictedGauge, evicted)
	}
	if after > resident-8*per {
		t.Errorf("resident_bytes %d still above low watermark %d", after, resident-8*per)
	}
	// The hot half must be intact.
	for i := n / 2; i < n; i++ {
		if n, _ := store.Count(fmt.Sprintf("k-%d", i)); n < 0.5 {
			t.Errorf("hot key k-%d was evicted", i)
		}
	}
	// Disabled watermarks never evict.
	store.SetMemoryWatermarks(0, 0)
	if got := store.EvictToWatermark(); got != 0 {
		t.Errorf("disabled watermark evicted %d keys", got)
	}
}

// TestEvictionRanksByRecency: eviction ranks keys by when they were last
// written, not by how often. A key written many times, long ago, goes before
// keys written once each, since.
func TestEvictionRanksByRecency(t *testing.T) {
	store, _ := newClockedStore(t, 1_000_000)
	for i := 0; i < 1000; i++ {
		if _, err := store.Add("a", fmt.Sprintf("e-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	const later = 8
	for i := 0; i < later; i++ {
		if _, err := store.Add(fmt.Sprintf("b-%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	_, _, resident := store.LifecycleStats()
	store.SetMemoryWatermarks(resident-1, resident-1) // shed one key
	if got := store.EvictToWatermark(); got != 1 {
		t.Fatalf("evicted %d keys, want 1", got)
	}
	if _, ok := store.Dump("a"); ok {
		t.Error("the least recently written key a survived eviction")
	}
	for i := 0; i < later; i++ {
		if _, ok := store.Dump(fmt.Sprintf("b-%d", i)); !ok {
			t.Errorf("b-%d, written after a, was evicted", i)
		}
	}
}

// TestLifecycleVerbs drives EXPIRE/PEXPIRE/TTL/PERSIST over the wire,
// including the Redis -2/-1 TTL conventions and argument validation.
func TestLifecycleVerbs(t *testing.T) {
	srv, c := startServer(t)
	clk := &fakeClock{}
	clk.ms.Store(1_000_000)
	srv.store.SetClock(clk.now)

	if _, err := c.PFAdd("k", "a"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		parts []string
		want  string // reply with the ':' sigil already stripped by Do
	}{
		{[]string{"TTL", "missing"}, "-2"},
		{[]string{"TTL", "k"}, "-1"},
		{[]string{"EXPIRE", "missing", "10"}, "0"},
		{[]string{"EXPIRE", "k", "10"}, "1"},
		{[]string{"TTL", "k"}, "10"},
		{[]string{"PEXPIRE", "k", "2500"}, "1"},
		{[]string{"TTL", "k"}, "3"}, // 2500ms rounds up
		{[]string{"PERSIST", "k"}, "1"},
		{[]string{"PERSIST", "k"}, "0"},
		{[]string{"TTL", "k"}, "-1"},
	} {
		if reply, err := c.Do(tc.parts...); err != nil || reply != tc.want {
			t.Errorf("%v → %q, %v; want %q", tc.parts, reply, err, tc.want)
		}
	}
	for _, bad := range [][]string{
		{"EXPIRE", "k"},
		{"EXPIRE", "k", "0"},
		{"EXPIRE", "k", "-5"},
		{"EXPIRE", "k", "nope"},
		{"EXPIRE", "k", "99999999999999999999"},
		{"PEXPIRE", "k", "0"},
		{"PEXPIRE", "k", "-1"},
		{"TTL"},
		{"PERSIST"},
	} {
		if _, err := c.Do(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	// Expiry over the wire: the key vanishes at its deadline.
	if _, err := c.Do("PEXPIRE", "k", "100"); err != nil {
		t.Fatal(err)
	}
	clk.advance(200 * time.Millisecond)
	if reply, err := c.Do("TTL", "k"); err != nil || reply != "-2" {
		t.Errorf("TTL after deadline = %q, %v; want -2", reply, err)
	}
	if n, err := c.PFCount("k"); err != nil || n != 0 {
		t.Errorf("PFCOUNT after deadline = %v, %v; want 0", n, err)
	}
}

// TestClientLifecycleAPI sends the lifecycle verbs through Client.Do and
// the typed Persist.
func TestClientLifecycleAPI(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.PFAdd("k", "a"); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.Do("EXPIRE", "k", "90"); err != nil || reply != "1" {
		t.Fatalf("EXPIRE = %q, %v", reply, err)
	}
	if reply, err := c.Do("TTL", "k"); err != nil || reply != "90" {
		t.Fatalf("TTL = %q, %v; want 90", reply, err)
	}
	if reply, err := c.Do("PEXPIRE", "k", "500"); err != nil || reply != "1" {
		t.Fatalf("PEXPIRE = %q, %v", reply, err)
	}
	if reply, err := c.Do("PERSIST", "k"); err != nil || reply != "1" {
		t.Fatalf("PERSIST = %q, %v; want 1", reply, err)
	}
	if reply, err := c.Do("TTL", "k"); err != nil || reply != "-1" {
		t.Fatalf("TTL after Persist = %q, %v; want -1", reply, err)
	}
	if reply, err := c.Do("TTL", "missing"); err != nil || reply != "-2" {
		t.Fatalf("TTL of missing key = %q, %v; want -2", reply, err)
	}
}

// TestSnapshotV4DeadlineRoundTrip: deadlines ride snapshot records;
// records already past their deadline at load time stay dead.
func TestSnapshotV4DeadlineRoundTrip(t *testing.T) {
	store, _ := newClockedStore(t, 1_000_000)
	for _, k := range []string{"keep", "ttl-far", "ttl-near"} {
		if _, err := store.Add(k, "x", "y"); err != nil {
			t.Fatal(err)
		}
	}
	store.ExpireAt("ttl-far", 2_000_000)
	store.ExpireAt("ttl-near", 1_001_000)
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4] != snapshotVersion {
		t.Fatalf("snapshot wrote version %d, want %d", buf.Bytes()[4], snapshotVersion)
	}
	snap := buf.Bytes()

	restored, clk2 := newClockedStore(t, 1_000_000)
	if err := restored.ReadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if dl, ok := restored.DeadlineOf("ttl-far"); !ok || dl != 2_000_000 {
		t.Errorf("restored deadline = %d, %v; want 2000000, true", dl, ok)
	}
	if dl, ok := restored.DeadlineOf("keep"); !ok || dl != 0 {
		t.Errorf("undeadlined key restored as %d, %v", dl, ok)
	}
	_, _, resident := restored.LifecycleStats()
	if resident <= 0 {
		t.Errorf("resident_bytes not rebuilt on load: %d", resident)
	}
	// Advance past ttl-near and reload the same bytes elsewhere: the
	// expired record is skipped at load.
	clk2.advance(time.Hour)
	if n, _ := restored.Count("ttl-near"); n != 0 {
		t.Error("ttl-near survived its deadline after restore")
	}
	late, _ := newClockedStore(t, 1_500_000)
	if err := late.ReadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if late.Len() != 2 {
		t.Errorf("late load kept %d keys, want 2 (ttl-near expired on disk)", late.Len())
	}
	if _, ok := late.Dump("ttl-near"); ok {
		t.Error("record already past its deadline resurrected at load")
	}
}

// TestResidentBytesTracksWindowRings is TestResidentBytesTracksLiveHeap for
// the windowed keyspace: a ring is charged what its slices hold — a few KB
// while they are token sets, a register array for each slice that filled
// past break-even — so the gauge stays within 15 % of the measured live
// heap as rings fill and densify, and the watermark eviction, which judges
// by the gauge, stops at the low mark instead of shedding every ring as if
// each were 60 register arrays (867 KB).
func TestResidentBytesTracksWindowRings(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const keys = 40
	store := newTestStore(t)
	element := make([]byte, 0, 32)
	fill := func(key, slice, from, to int) {
		name := []byte(fmt.Sprintf("ring-%02d", key))
		for j := from; j < to; j++ {
			element = strconv.AppendInt(append(element[:0], name...), int64(slice)<<32|int64(j), 10)
			if _, err := store.WindowAddBytes(name, 1_750_000_000_000+int64(slice)*1000, [][]byte{element}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := liveHeap()
	check := func(stage string) int64 {
		heap := float64(liveHeap() - before)
		_, _, resident := store.LifecycleStats()
		if ratio := float64(resident) / heap; ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: resident_bytes %d vs %.0f live heap bytes: ratio %.3f outside 0.85–1.15", stage, resident, heap, ratio)
		}
		t.Logf("%s: resident_bytes %.0f B/ring, live heap %.0f B/ring", stage, float64(resident)/keys, heap/keys)
		return resident
	}
	for i := 0; i < keys; i++ {
		for s := 0; s < 60; s++ {
			fill(i, s, 0, 5+35*(i%3)) // 5, 40 or 75 elements a slice
		}
	}
	if light := check("token slices"); light > keys*16<<10 {
		t.Errorf("%d rings of at most 75 elements a slice are charged %d bytes", keys, light)
	}
	for i := 0; i < keys; i += 10 {
		for s := 0; s < 3; s++ {
			fill(i, s, 100, 50000) // past break-even, about 44 000 elements
		}
	}
	resident := check("four rings with three dense slices each")
	// The four heavy rings are the hottest (most writes): shedding a quarter
	// of the gauge takes some of the light rings, a few KB at a time.
	low := resident * 3 / 4
	store.SetMemoryWatermarks(resident-1, low)
	evicted := store.EvictToWatermark()
	if _, _, after := store.LifecycleStats(); after > low || after < low-16<<10 || evicted < 8 || evicted > 24 {
		t.Errorf("evicted %d of %d rings, resident_bytes %d → %d: want a stop just under the low mark %d", evicted, keys, resident, after, low)
	}
	runtime.KeepAlive(store)
}

// FuzzSnapshotDecode fuzzes the snapshot reader and, through it, the frame
// decoder the transfer stream shares: arbitrary snapshot bytes must never
// panic it, and an accepted stream must re-encode to one that loads the
// same keys.
func FuzzSnapshotDecode(f *testing.F) {
	seedStore, err := NewStore(core.RecommendedML(8))
	if err != nil {
		f.Fatal(err)
	}
	seedStore.Add("k1", "a", "b")
	seedStore.Add("k2", "c")
	seedStore.ExpireAt("k1", 9_000_000_000_000)
	var seed bytes.Buffer
	if err := seedStore.WriteSnapshot(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("ELSS"))
	f.Add([]byte("ELSS\x06"))
	f.Add([]byte("ELSS\x06\x00\x01"))
	f.Add([]byte("ELSS\x06\x00\x00"))
	f.Add(append([]byte("ELSS\x06\x00"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	if len(seed.Bytes()) > 10 {
		trunc := seed.Bytes()[:len(seed.Bytes())-7]
		f.Add(append([]byte{}, trunc...))
		mut := append([]byte{}, seed.Bytes()...)
		mut[7] ^= 0xff
		f.Add(mut)
	}
	f.Add(elc1Record(f)) // a record in the retired codec's container
	// The frame decoder's own cases, each in a snapshot: a bare magic, two
	// plain records and half of them, a count of 2^40, one record of each
	// value kind, and the retired frame magics.
	valid := EncodeFrame([]KeyBlob{
		{Key: "k", Blob: []byte("v")},
		{Key: "longer-key", Blob: bytes.Repeat([]byte{9}, 300)},
	})
	f.Add(snapshotOf([]byte(frameMagic)))
	f.Add(snapshotOf(valid))
	f.Add(snapshotOf(valid[:len(valid)/2]))
	f.Add(snapshotOf(append([]byte(frameMagic), binary.AppendUvarint(nil, 1<<40)...)))
	f.Add(snapshotOf(EncodeFrame(mixedItems(f))))
	f.Add(snapshotOf(append([]byte("ELX1"), valid[len(frameMagic):]...)))
	f.Add(snapshotOf(append([]byte("ELX2"), valid[len(frameMagic):]...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := NewStore(core.RecommendedML(8))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.ReadSnapshot(bytes.NewReader(data)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := store.WriteSnapshot(&out); err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		again, _ := NewStore(core.RecommendedML(8))
		if err := again.ReadSnapshot(&out); err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if again.Len() != store.Len() {
			t.Fatalf("re-encoded snapshot holds %d keys, the accepted one %d", again.Len(), store.Len())
		}
	})
}

// FuzzLifecycleVerbFraming mirrors FuzzWindowVerbFraming for the
// lifecycle verbs: arbitrary EXPIRE/PEXPIRE/TTL/PERSIST argument bytes
// must never panic the dispatcher or emit an unframed reply.
func FuzzLifecycleVerbFraming(f *testing.F) {
	f.Add("key 10")
	f.Add("key 0")
	f.Add("key -10")
	f.Add("key 99999999999999999999")
	f.Add("key 1125899906842624")
	f.Add("key nope")
	f.Add("key")
	f.Add("")
	f.Add("key 10 extra")
	f.Add("k \x00 \xff")
	f.Fuzz(func(t *testing.T, args string) {
		store, err := NewStore(core.RecommendedML(8))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(store)
		var out bytes.Buffer
		cc := newConnCtx(srv, nil, &out)
		for _, verb := range []string{"EXPIRE ", "PEXPIRE ", "TTL ", "PERSIST "} {
			if quit := cc.exec([]byte(verb + args + "\n")); quit {
				t.Fatalf("%s%q quit the connection", verb, args)
			}
		}
		cc.flush()
		for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
			if line == "" {
				continue
			}
			switch line[0] {
			case '+', '-', ':', '=':
			default:
				t.Fatalf("unframed reply line %q for args %q", line, args)
			}
		}
		// The store stays consistent: a key created now works.
		if _, err := store.Add("post", "x"); err != nil {
			t.Fatalf("store unusable after fuzzed lifecycle verbs: %v", err)
		}
	})
}

// TestResidentBytesTracksLiveHeap: the resident_bytes gauge is what the
// -mem-high/-mem-low watermarks act on, so it has to be the heap the keys
// really hold — within 7 % of the measured live-heap delta on a skewed
// keyspace (of every 20 keys 14 hold 1–32 elements, 5 hold 33–1000 and 1
// holds 1001–10000, and one key in a hundred 45 000–60 000: sparse values
// that grow token by token, a few dense ones), and back at zero when the
// keys are gone.
func TestResidentBytesTracksLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const keys = 2000
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%05d", i)
	}
	element := make([]byte, 0, 32)
	store := newTestStore(t)
	before := liveHeap()
	for i, name := range names {
		lo, hi := 1, 32
		switch m := i % 20; {
		case i%100 == 1: // past break-even, about 44 000 elements
			lo, hi = 45000, 60000
		case m == 0:
			lo, hi = 1001, 10000
		case m <= 5:
			lo, hi = 33, 1000
		}
		n := lo + i*7919%(hi-lo+1)
		// Half of the keys arrive element by element, half in one call:
		// growth is accounted on both paths.
		if i%2 == 0 {
			for j := 0; j < n; j++ {
				element = strconv.AppendInt(append(element[:0], name...), int64(j), 10)
				if _, err := store.AddBytes([]byte(name), [][]byte{element}); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		els := make([]string, n)
		for j := range els {
			els[j] = name + strconv.Itoa(j)
		}
		if _, err := store.Add(name, els...); err != nil {
			t.Fatal(err)
		}
	}
	heap := float64(liveHeap() - before)
	_, _, resident := store.LifecycleStats()
	if ratio := float64(resident) / heap; ratio < 0.93 || ratio > 1.07 {
		t.Errorf("resident_bytes %d vs %.0f live heap bytes (%.0f vs %.0f per key): ratio %.3f outside 0.93–1.07",
			resident, heap, float64(resident)/keys, heap/keys, ratio)
	}
	t.Logf("resident_bytes %.0f B/key, live heap %.0f B/key", float64(resident)/keys, heap/keys)
	for _, name := range names {
		store.Delete(name)
	}
	if _, _, left := store.LifecycleStats(); left != 0 {
		t.Errorf("resident_bytes %d after deleting every key", left)
	}
	runtime.KeepAlive(store)
}
