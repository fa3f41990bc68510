// Package window provides approximate distinct counting over sliding time
// windows, built from mergeable ExaLogLog sketches.
//
// Sliding-window distinct counting is one of the motivating applications of
// the paper's introduction (port-scan and DDoS detection in IP traffic,
// references [9] and [11]). The approach here is the standard bucketed
// one: time is divided into fixed slices, each slice owns its own ELL
// sketch, and a window query merges the sketches of the slices that
// overlap the window. This preserves every ELL property the paper
// emphasizes — inserts stay constant-time, slices merge losslessly, and
// duplicate elements within a slice never change state — at the cost of
// slice-granular window edges: a query for the last W seconds actually
// covers between W and W+slice seconds of data.
package window

import (
	"fmt"
	"math"
	"time"

	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
)

// Counter counts distinct elements over a sliding time window.
//
// A Counter is a ring of numSlices ExaLogLog sketches, each covering one
// slice of wall-clock time and, like a plain key, held as hash tokens until
// it fills past break-even (core.Hybrid): a ring costs what its slices hold. Timestamps are supplied by the caller, which
// keeps the Counter deterministic and testable; feed time.Now() for live
// use. Timestamps may arrive slightly out of order; elements older than
// the ring span are counted in Dropped and ignored.
//
// A Counter is not safe for concurrent use.
type Counter struct {
	cfg      core.Config
	slice    time.Duration
	slots    []slot
	maxIndex int64 // newest slice index seen so far
	latest   int64 // newest timestamp seen, unix nanoseconds (0 = none)
	dropped  uint64
}

type slot struct {
	index  int64 // slice index currently stored, -1 if empty
	sketch core.Hybrid
}

// New returns a sliding-window counter with the given sketch
// configuration, slice duration and number of slices. The maximum
// queryable window is slice·numSlices.
func New(cfg core.Config, slice time.Duration, numSlices int) (*Counter, error) {
	empty, err := core.MakeHybrid(cfg)
	if err != nil {
		return nil, err
	}
	if slice <= 0 {
		return nil, fmt.Errorf("window: slice duration %v must be positive", slice)
	}
	if numSlices < 2 {
		return nil, fmt.Errorf("window: need at least 2 slices, got %d", numSlices)
	}
	c := &Counter{cfg: cfg, slice: slice, slots: make([]slot, numSlices), maxIndex: -1}
	for i := range c.slots {
		c.slots[i] = slot{index: -1, sketch: empty}
	}
	return c, nil
}

// Span returns the maximum window the counter can answer, slice·numSlices.
func (c *Counter) Span() time.Duration { return c.slice * time.Duration(len(c.slots)) }

// SliceDuration returns the granularity of window edges.
func (c *Counter) SliceDuration() time.Duration { return c.slice }

// Dropped returns how many insertions were discarded because their
// timestamp was older than the ring span.
func (c *Counter) Dropped() uint64 { return c.dropped }

// Config returns the sketch configuration the counter's slices use.
func (c *Counter) Config() core.Config { return c.cfg }

// NumSlices returns the number of slices in the ring.
func (c *Counter) NumSlices() int { return len(c.slots) }

// Latest returns the newest timestamp any insertion carried (the
// counter's logical "now" — useful as the default query time for
// deterministic, clockless callers). The zero time means no insertion
// has been seen.
func (c *Counter) Latest() time.Time {
	if c.latest == 0 {
		return time.Time{}
	}
	return time.Unix(0, c.latest)
}

// MemoryFootprint returns the approximate total in-memory size in bytes:
// what every slice holds in its current mode, its slice index, and the
// Counter itself.
func (c *Counter) MemoryFootprint() int {
	size := 64
	for i := range c.slots {
		size += 8 + c.slots[i].sketch.MemoryFootprint()
	}
	return size
}

// sliceIndex maps a timestamp to its slice index.
func (c *Counter) sliceIndex(ts time.Time) int64 {
	return ts.UnixNano() / int64(c.slice)
}

// Add inserts a byte-slice element observed at ts.
func (c *Counter) Add(ts time.Time, element []byte) {
	c.AddHash(ts, hashing.Wy64(element, 0))
}

// AddString inserts a string element observed at ts.
func (c *Counter) AddString(ts time.Time, element string) {
	c.AddHash(ts, hashing.WyString(element, 0))
}

// AddUint64 inserts a 64-bit integer element observed at ts.
func (c *Counter) AddUint64(ts time.Time, element uint64) {
	c.AddHash(ts, hashing.Wy64Uint64(element, 0))
}

// maxUnixSec bounds the timestamps a Counter can represent: UnixNano —
// which slice indexing and Latest are built on — is only defined for
// seconds in roughly ±292 years around 1970; beyond that the
// conversion WRAPS, which would either panic the slot arithmetic
// (wrap-negative) or poison the ring with a far-future maxIndex that
// silently drops all real traffic (wrap-positive).
const maxUnixSec = int64(math.MaxInt64 / int64(time.Second))

// AddHash inserts an element by its 64-bit hash, observed at ts.
func (c *Counter) AddHash(ts time.Time, h uint64) {
	if s := c.slotFor(ts); s != nil {
		s.sketch.AddHash(h)
		return
	}
	c.dropped++
}

// AddHashes inserts elements by their 64-bit hashes, all observed at ts:
// the slice is found once, and the hashes go in as core.Hybrid.AddHashes
// takes them — one by one below a few dozen, as one sorted merge above. It
// returns how many were accepted: all of them, or none when ts is older
// than the ring span (they count in Dropped).
func (c *Counter) AddHashes(ts time.Time, hashes []uint64) int {
	s := c.slotFor(ts)
	if s == nil {
		c.dropped += uint64(len(hashes))
		return 0
	}
	s.sketch.AddHashes(hashes)
	return len(hashes)
}

// AddBatch inserts n elements observed at ts, given as their token batch
// (core.MakeBatch), which must have the counter's configuration: the slice
// is found once for all of them, and the batch goes in as one
// (core.Hybrid.Absorb). It returns how many elements were accepted — all n,
// or none when ts is older than the ring span (they count in Dropped).
func (c *Counter) AddBatch(ts time.Time, batch *core.Hybrid, n int) (int, error) {
	if batch.Config() != c.cfg {
		return 0, fmt.Errorf("window: batch of config %+v for a ring of %+v", batch.Config(), c.cfg)
	}
	s := c.slotFor(ts)
	if s == nil {
		c.dropped += uint64(n)
		return 0, nil
	}
	if _, err := s.sketch.Absorb(batch); err != nil {
		panic(err) // unreachable: configurations checked above
	}
	return n, nil
}

// slotFor returns the slot an element observed at ts goes into, advancing
// the ring to it, or nil when ts cannot be represented or is older than the
// ring span.
func (c *Counter) slotFor(ts time.Time) *slot {
	if sec := ts.Unix(); sec <= -maxUnixSec || sec >= maxUnixSec {
		// Outside UnixNano's defined range: unrepresentable. Timestamps
		// arrive from the wire, so this is load-bearing, not defensive.
		return nil
	}
	idx := c.sliceIndex(ts)
	if idx < 0 {
		// Pre-epoch: representable as a time, not as a ring slice (a
		// negative modulus would index out of range).
		return nil
	}
	if ns := ts.UnixNano(); ns > c.latest {
		c.latest = ns
	}
	if idx > c.maxIndex {
		c.maxIndex = idx
	} else if c.maxIndex-idx >= int64(len(c.slots)) {
		return nil // older than the ring span
	}
	s := &c.slots[int(idx%int64(len(c.slots)))]
	if s.index != idx {
		if s.index > idx {
			// The slot already holds a newer slice; the element is too
			// old to be representable.
			return nil
		}
		s.sketch.Reset()
		s.index = idx
	}
	return s
}

// Merge folds other into c slot-wise: slices with the same index merge
// their sketches losslessly and newer slices advance the ring. Slices
// already older than the merged ring's span are skipped silently —
// they are expired data no queryable window could see, not dropped
// inserts. Dropped resolves to the MAX of the two counters, not the
// sum: replicas of one stream drop the same inserts, and taking the
// max is what keeps the whole merge idempotent — re-merging the same
// ring (a replication retry, an anti-entropy re-send) changes nothing,
// the property cluster rebalance relies on. (The cost: merging rings
// of genuinely disjoint streams under-reports their combined drops;
// Dropped is a diagnostic, idempotency is an invariant.) Both counters
// must share the sketch configuration, slice duration and slice count.
// Merging is commutative and idempotent at the slice level, which is
// what lets distributed collectors ship whole windows instead of raw
// events.
func (c *Counter) Merge(other *Counter) error {
	if c.cfg != other.cfg {
		return fmt.Errorf("window: merge of different sketch configurations %+v and %+v", c.cfg, other.cfg)
	}
	if c.slice != other.slice || len(c.slots) != len(other.slots) {
		return fmt.Errorf("window: merge of different ring geometries %v×%d and %v×%d",
			c.slice, len(c.slots), other.slice, len(other.slots))
	}
	for i := range other.slots {
		s := &other.slots[i]
		if s.index < 0 {
			continue
		}
		c.mergeSlice(s.index, &s.sketch)
	}
	if other.latest > c.latest {
		c.latest = other.latest
	}
	if other.dropped > c.dropped {
		c.dropped = other.dropped
	}
	return nil
}

// mergeSlice folds one slice sketch into the ring at slice index idx,
// with the same advance rules as AddHash; expired slices are skipped
// without touching Dropped (see Merge).
func (c *Counter) mergeSlice(idx int64, sk *core.Hybrid) {
	if idx < 0 {
		return // in-memory rings and the decoder only hold idx >= 0; defensive
	}
	if idx > c.maxIndex {
		c.maxIndex = idx
	} else if c.maxIndex-idx >= int64(len(c.slots)) {
		return // already expired in the merged ring
	}
	s := &c.slots[int(idx%int64(len(c.slots)))]
	if s.index != idx {
		if s.index > idx {
			return // the slot holds a newer slice (defensive; see AddHash)
		}
		s.sketch.Reset()
		s.index = idx
	}
	if err := s.sketch.Merge(sk); err != nil {
		panic(err) // unreachable: configurations checked by Merge
	}
}

// Estimate returns the approximate number of distinct elements observed in
// the window (now-window, now]. The window is rounded up to whole slices
// and capped at Span.
func (c *Counter) Estimate(now time.Time, window time.Duration) float64 {
	return c.merged(now, window).Estimate()
}

// EstimateWithBounds is Estimate plus a confidence interval (see
// core.Sketch.EstimateWithBounds).
func (c *Counter) EstimateWithBounds(now time.Time, window time.Duration, confidence float64) (core.Interval, error) {
	return c.Sketch(now, window).EstimateWithBounds(confidence)
}

// merged returns the union of all live slices overlapping (now-window,
// now], empty if none do: a token set while the slices' tokens together stay
// below break-even, dense registers otherwise (core.UnionHybrids).
func (c *Counter) merged(now time.Time, window time.Duration) *core.Hybrid {
	var live []*core.Hybrid
	if window > 0 {
		window = min(window, c.Span())
		nowIdx := c.sliceIndex(now)
		n := int64((window + c.slice - 1) / c.slice) // slices covered, rounded up
		oldest := nowIdx - n + 1
		for i := range c.slots {
			if s := &c.slots[i]; s.index >= oldest && s.index <= nowIdx {
				live = append(live, &s.sketch)
			}
		}
	}
	union, err := core.UnionHybrids(c.cfg, live)
	if err != nil {
		panic(err) // unreachable: all slices share one configuration
	}
	return union
}

// Sketch returns the union sketch over the window — for callers that want
// to merge windows across counters (e.g. per-shard counters in a
// distributed collector). Returns an empty sketch if no slice overlaps.
func (c *Counter) Sketch(now time.Time, window time.Duration) *core.Sketch {
	return c.merged(now, window).Densify()
}
