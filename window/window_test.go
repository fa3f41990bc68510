package window

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
)

var t0 = time.Date(2026, 6, 13, 12, 0, 0, 0, time.UTC)

func newCounter(t *testing.T, p int, slice time.Duration, slices int) *Counter {
	t.Helper()
	c, err := New(core.Config{T: 2, D: 20, P: p}, slice, slices)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sketchOf is the union sketch over the window ending at now: what a
// caller merging windows across counters (per-shard counters of one
// collector) would take from each.
func sketchOf(c *Counter, now time.Time, window time.Duration) *core.Sketch {
	var u core.Union
	defer u.Reset(c.cfg) // gives its token array back
	h := c.union(&u, now, window).Hybrid()
	return h.Densify()
}

func TestNewValidation(t *testing.T) {
	good := core.Config{T: 2, D: 20, P: 8}
	if _, err := New(core.Config{T: 9, D: 20, P: 8}, time.Second, 4); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := New(good, 0, 4); err == nil {
		t.Error("zero slice duration accepted")
	}
	if _, err := New(good, time.Second, 1); err == nil {
		t.Error("single slice accepted")
	}
	c, err := New(good, time.Second, 60)
	if err != nil {
		t.Fatal(err)
	}
	if c.Span() != time.Minute {
		t.Errorf("Span = %v, want 1m", c.Span())
	}
}

// TestWindowAccuracy streams distinct elements at a constant rate and
// checks windowed estimates against the exact sliding count.
func TestWindowAccuracy(t *testing.T) {
	const (
		perSlice = 2000
		slices   = 10
	)
	c := newCounter(t, 10, time.Second, slices)
	state := uint64(1)
	// Fill all 10 slices with perSlice fresh distinct elements each.
	for s := 0; s < slices; s++ {
		ts := t0.Add(time.Duration(s) * time.Second)
		for i := 0; i < perSlice; i++ {
			c.AddHash(ts, hashing.SplitMix64(&state))
		}
	}
	now := t0.Add(time.Duration(slices-1) * time.Second)
	for w := 1; w <= slices; w++ {
		want := float64(w * perSlice)
		got := c.Estimate(now, time.Duration(w)*time.Second)
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Errorf("window %ds: estimate %.0f, want %.0f (rel err %.1f%%)", w, got, want, 100*rel)
		}
	}
}

// TestExpiry: elements older than the window must stop contributing.
func TestExpiry(t *testing.T) {
	c := newCounter(t, 8, time.Second, 4)
	state := uint64(7)
	for i := 0; i < 5000; i++ {
		c.AddHash(t0, hashing.SplitMix64(&state))
	}
	if got := c.Estimate(t0, time.Second); got < 4000 {
		t.Fatalf("fresh estimate %.0f too low", got)
	}
	// Advance 4 slices: t0's slice leaves every window.
	later := t0.Add(4 * time.Second)
	c.AddHash(later, hashing.SplitMix64(&state)) // rotate the ring
	if got := c.Estimate(later, 2*time.Second); got > 100 {
		t.Fatalf("expired elements still visible: estimate %.0f", got)
	}
}

// TestLateArrivals: elements within the ring span land in their proper
// slice; older ones are dropped and counted.
func TestLateArrivals(t *testing.T) {
	c := newCounter(t, 8, time.Second, 4)
	now := t0.Add(10 * time.Second)
	c.AddUint64(now, 1)
	// 2 slices late: still within the 4-slice ring.
	c.AddUint64(now.Add(-2*time.Second), 2)
	if c.Dropped() != 0 {
		t.Fatalf("in-span late arrival dropped")
	}
	// 5 slices late: beyond the ring.
	c.AddUint64(now.Add(-5*time.Second), 3)
	if c.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", c.Dropped())
	}
	// The in-span late element must appear in a 3-slice window but not in
	// a 1-slice window.
	if got := c.Estimate(now, 3*time.Second); math.Abs(got-2) > 0.5 {
		t.Errorf("3s window estimate %.2f, want ≈2", got)
	}
	if got := c.Estimate(now, time.Second); math.Abs(got-1) > 0.5 {
		t.Errorf("1s window estimate %.2f, want ≈1", got)
	}
}

// TestRingSpanBoundary pins the out-of-order acceptance boundary: with
// the newest slice at index N in an S-slice ring, an element at slice
// N-(S-1) is the oldest representable one and must land in its slot,
// while an element exactly one slice older — distance S, precisely the
// ring span — must be dropped and counted, never wrap around into a
// live slot and pollute a fresh slice.
func TestRingSpanBoundary(t *testing.T) {
	const slices = 4
	c := newCounter(t, 8, time.Second, slices)
	now := t0.Add(100 * time.Second)
	c.AddUint64(now, 1)

	// Distance slices-1: the oldest in-span slice. Accepted.
	oldest := now.Add(-(slices - 1) * time.Second)
	c.AddUint64(oldest, 2)
	if c.Dropped() != 0 {
		t.Fatalf("element at ring-span edge (distance %d slices) dropped", slices-1)
	}
	if got := c.Estimate(now, slices*time.Second); math.Abs(got-2) > 0.5 {
		t.Errorf("full-span estimate %.2f after edge insert, want ≈2", got)
	}

	// Distance slices: exactly the ring span. Dropped, and the slot it
	// would wrap onto (now's own slot) must be untouched.
	atSpan := now.Add(-slices * time.Second)
	c.AddUint64(atSpan, 3)
	if c.Dropped() != 1 {
		t.Fatalf("Dropped = %d after an exactly-span-old insert, want 1", c.Dropped())
	}
	if got := c.Estimate(now, time.Second); math.Abs(got-1) > 0.5 {
		t.Errorf("newest-slice estimate %.2f — the dropped element wrapped into a live slot", got)
	}

	// The boundary moves with the ring: once the newest slice advances,
	// the previously-oldest representable slice falls exactly at the
	// span and is dropped on arrival.
	c.AddUint64(now.Add(time.Second), 4)
	c.AddUint64(oldest, 5) // distance is now exactly `slices` again
	if c.Dropped() != 2 {
		t.Errorf("Dropped = %d after the boundary advanced, want 2", c.Dropped())
	}
}

// TestPreEpochTimestampIsDroppedNotPanic: timestamps before the unix
// epoch (or so large the nanosecond conversion overflows negative)
// yield a negative slice index; they must be counted as dropped, never
// reach the slot arithmetic (a negative modulus would index out of
// range), and never move Latest. Timestamps arrive from the wire, so
// this is reachable by any client.
func TestPreEpochTimestampIsDroppedNotPanic(t *testing.T) {
	c := newCounter(t, 8, time.Second, 4)
	hostile := []time.Time{
		time.Unix(-5, 0),                       // pre-epoch
		time.Unix(0, -5_000_000_000),           // negative nanoseconds
		time.UnixMilli(-9_000_000_000_000),     // far pre-epoch
		time.UnixMilli(9_000_000_000_000_000),  // UnixNano overflow
		time.UnixMilli(-9_000_000_000_000_000), // overflow that wraps POSITIVE — must not poison maxIndex
	}
	for _, ts := range hostile {
		c.AddUint64(ts, 1)
	}
	if got := c.Dropped(); got != uint64(len(hostile)) {
		t.Errorf("Dropped = %d for %d unrepresentable timestamps, want all dropped", got, len(hostile))
	}
	if !c.Latest().IsZero() {
		t.Errorf("unrepresentable timestamps moved Latest to %v", c.Latest())
	}
	c.AddUint64(t0, 2) // the counter still works normally afterwards
	if got := c.Estimate(t0, time.Second); math.Abs(got-1) > 0.5 {
		t.Errorf("estimate %.2f after recovery, want ≈1", got)
	}
}

// TestLatestTracksNewestTimestamp: Latest is the counter's logical
// "now" — it advances with the newest insert, ignores older ones, and
// starts at the zero time.
func TestLatestTracksNewestTimestamp(t *testing.T) {
	c := newCounter(t, 8, time.Second, 4)
	if !c.Latest().IsZero() {
		t.Fatalf("fresh counter Latest = %v, want zero", c.Latest())
	}
	c.AddUint64(t0, 1)
	c.AddUint64(t0.Add(-time.Second), 2) // older: must not move Latest back
	if got := c.Latest(); !got.Equal(t0) {
		t.Errorf("Latest = %v, want %v", got, t0)
	}
	later := t0.Add(3 * time.Second)
	c.AddUint64(later, 3)
	if got := c.Latest(); !got.Equal(later) {
		t.Errorf("Latest = %v, want %v", got, later)
	}
}

// TestMergeCounters: merging one counter into another is exactly
// replaying its insertions — same estimates per window, max Latest,
// idempotent Dropped — and geometry or configuration mismatches are
// errors.
func TestMergeCounters(t *testing.T) {
	a := newCounter(t, 10, time.Second, 6)
	b := newCounter(t, 10, time.Second, 6)
	ref := newCounter(t, 10, time.Second, 6)
	state := uint64(42)
	for s := 0; s < 6; s++ {
		ts := t0.Add(time.Duration(s) * time.Second)
		for i := 0; i < 300; i++ {
			h := hashing.SplitMix64(&state)
			ref.AddHash(ts, h)
			if (s+i)%2 == 0 {
				a.AddHash(ts, h)
			} else {
				b.AddHash(ts, h)
			}
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	now := t0.Add(5 * time.Second)
	for w := 1; w <= 6; w++ {
		win := time.Duration(w) * time.Second
		if got, want := a.Estimate(now, win), ref.Estimate(now, win); got != want {
			t.Errorf("window %v: merged estimate %.2f != replayed %.2f (merge must be lossless)", win, got, want)
		}
	}
	if !a.Latest().Equal(ref.Latest()) {
		t.Errorf("merged Latest %v, want %v", a.Latest(), ref.Latest())
	}

	// Merge is idempotent, Dropped included: re-merging the same ring
	// (a replication retry) must change nothing.
	b.AddHash(t0.Add(-time.Hour), 99) // one genuine drop in b
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	wantDropped, wantEst := a.Dropped(), a.Estimate(now, a.Span())
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Dropped() != wantDropped {
		t.Errorf("re-merge inflated Dropped %d → %d (must be idempotent)", wantDropped, a.Dropped())
	}
	if got := a.Estimate(now, a.Span()); got != wantEst {
		t.Errorf("re-merge moved the estimate %v → %v", wantEst, got)
	}

	other, _ := New(core.Config{T: 2, D: 20, P: 8}, time.Second, 6)
	if err := a.Merge(other); err == nil {
		t.Error("merge across sketch configurations accepted")
	}
	geom := newCounter(t, 10, 2*time.Second, 6)
	if err := a.Merge(geom); err == nil {
		t.Error("merge across slice durations accepted")
	}
}

// TestDuplicatesWithinWindow: re-inserting the same element in the same
// slice never inflates the count.
func TestDuplicatesWithinWindow(t *testing.T) {
	c := newCounter(t, 8, time.Second, 4)
	for i := 0; i < 1000; i++ {
		c.AddString(t0, "the-same-element")
	}
	if got := c.Estimate(t0, time.Second); math.Abs(got-1) > 0.5 {
		t.Fatalf("estimate %.2f for one duplicated element", got)
	}
}

// TestDuplicateAcrossSlices: the same element in two slices is counted
// once per window that covers both (sketch union is idempotent).
func TestDuplicateAcrossSlices(t *testing.T) {
	c := newCounter(t, 8, time.Second, 4)
	c.AddString(t0, "x")
	c.AddString(t0.Add(time.Second), "x")
	now := t0.Add(time.Second)
	if got := c.Estimate(now, 2*time.Second); math.Abs(got-1) > 0.5 {
		t.Fatalf("union estimate %.2f, want ≈1", got)
	}
}

func TestEstimateEdgeCases(t *testing.T) {
	c := newCounter(t, 8, time.Second, 4)
	if got := c.Estimate(t0, time.Second); got != 0 {
		t.Errorf("empty counter estimate %g", got)
	}
	if got := c.Estimate(t0, -time.Second); got != 0 {
		t.Errorf("negative window estimate %g", got)
	}
	c.AddUint64(t0, 1)
	// Oversized window is capped at Span, not an error.
	if got := c.Estimate(t0, time.Hour); math.Abs(got-1) > 0.5 {
		t.Errorf("capped window estimate %g, want ≈1", got)
	}
	iv, err := sketchOf(c, t0, time.Second).EstimateWithBounds(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lower > iv.Estimate || iv.Upper < iv.Estimate {
		t.Errorf("malformed interval %+v", iv)
	}
}

// TestSketchMergeAcrossCounters: windows from two shards merge into a
// union estimate (distributed collection).
func TestSketchMergeAcrossCounters(t *testing.T) {
	a := newCounter(t, 10, time.Second, 4)
	b := newCounter(t, 10, time.Second, 4)
	state := uint64(55)
	shared := make([]uint64, 3000)
	for i := range shared {
		shared[i] = hashing.SplitMix64(&state)
	}
	// Shard A sees the shared set plus 2000 extra; shard B sees the shared
	// set plus 1000 extra.
	for _, h := range shared {
		a.AddHash(t0, h)
		b.AddHash(t0, h)
	}
	for i := 0; i < 2000; i++ {
		a.AddHash(t0, hashing.SplitMix64(&state))
	}
	for i := 0; i < 1000; i++ {
		b.AddHash(t0, hashing.SplitMix64(&state))
	}
	sa := sketchOf(a, t0, time.Second)
	sb := sketchOf(b, t0, time.Second)
	if err := sa.Merge(sb); err != nil {
		t.Fatal(err)
	}
	want := 6000.0
	if got := sa.Estimate(); math.Abs(got-want)/want > 0.10 {
		t.Fatalf("union estimate %.0f, want ≈%.0f", got, want)
	}
}

// TestMemoryFootprint: a ring costs what its slices hold, in memory and
// serialized. The served geometry — 60 slices of p = 12 ELL(2,20) — at 40
// elements a slice is pinned: 6 016 resident bytes with 32-byte slots
// (7 456 with 56-byte ones, 867 424 when every slice was a register array)
// and a 4 677-byte blob (861 084); slices filled past break-even are
// register arrays again.
func TestMemoryFootprint(t *testing.T) {
	fill := func(c *Counter, perSlice int) (footprint, blob int) {
		state := uint64(7)
		for s := 0; s < len(c.slots); s++ {
			for i := 0; i < perSlice; i++ {
				c.AddHash(t0.Add(time.Duration(s)*time.Second), hashing.SplitMix64(&state))
			}
		}
		b, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return c.MemoryFootprint(), len(b)
	}
	c := newCounter(t, 12, time.Second, 60)
	if got := c.MemoryFootprint(); got > 60*64 {
		t.Errorf("empty ring: MemoryFootprint = %d", got)
	}
	if footprint, blob := fill(c, 40); footprint > 6016 || blob > 4677 {
		t.Errorf("40 elements a slice: MemoryFootprint = %d (want ≤ 6 016), blob %d bytes (want ≤ 4 677)", footprint, blob)
	} else {
		t.Logf("40 elements a slice: %d bytes resident, %d serialized", footprint, blob)
	}
	// 8 slices of 256·28/8 = 896-byte register arrays plus overhead.
	if footprint, blob := fill(newCounter(t, 8, time.Second, 8), 20000); footprint < 8*896 || footprint > 8*896+8*256 || blob < 8*896 {
		t.Errorf("dense slices: MemoryFootprint = %d, blob %d bytes, outside plausible range", footprint, blob)
	}
	// A slot is its slice index and the 24-byte Hybrid handle.
	if size := unsafe.Sizeof(slot{}); size != 32 {
		t.Errorf("a slot is %d bytes, want 32", size)
	}
}

// TestAddBatchIsAddHashPerElement: n elements added as one token batch at
// ts leave the ring — bytes, Dropped, Latest — that AddHash of each of them
// at ts leaves: accepted whole, or dropped whole when ts is older than the
// span, whether the slice is new, holds some of them already or turns
// dense. A batch of another configuration is refused and changes nothing.
func TestAddBatchIsAddHashPerElement(t *testing.T) {
	cfg := core.Config{T: 2, D: 20, P: 8}
	batched, single := newCounter(t, 8, time.Second, 4), newCounter(t, 8, time.Second, 4)
	var next uint64
	elements := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			next++
			out[i] = hashing.Wy64Uint64(next, 0)
		}
		return out
	}
	for _, step := range []struct {
		at     time.Duration
		hashes []uint64
		want   int
	}{
		{0, elements(3), 3},
		{0, elements(40), 40},
		{2 * time.Second, elements(1), 1},
		{9 * time.Second, elements(5000), 5000}, // past break-even
		{time.Second, elements(7), 0},           // older than the span
		{9 * time.Second, elements(2), 2},
	} {
		ts := t0.Add(step.at)
		for _, h := range step.hashes {
			single.AddHash(ts, h)
		}
		batch, err := core.MakeBatch(cfg, step.hashes, nil)
		if err != nil {
			t.Fatal(err)
		}
		accepted, err := batched.AddBatch(ts, &batch, len(step.hashes))
		if err != nil || accepted != step.want {
			t.Fatalf("%d elements at +%v: accepted %d, %v; want %d", len(step.hashes), step.at, accepted, err, step.want)
		}
		got, _ := batched.MarshalBinary()
		want, _ := single.MarshalBinary()
		if string(got) != string(want) || batched.Dropped() != single.Dropped() || batched.Latest() != single.Latest() {
			t.Fatalf("%d elements at +%v: the batched ring differs from one fed element by element", len(step.hashes), step.at)
		}
	}
	before, _ := batched.MarshalBinary()
	other, _ := core.MakeBatch(core.Config{T: 2, D: 20, P: 10}, elements(3), nil)
	if _, err := batched.AddBatch(t0.Add(9*time.Second), &other, 3); err == nil {
		t.Error("a batch of another configuration was accepted")
	}
	if after, _ := batched.MarshalBinary(); string(after) != string(before) {
		t.Error("a refused batch changed the ring")
	}
}
