package window

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
)

// TestRingMatchesDenseReference holds the ring of hybrids to the CRDT
// oracle, against the ring as it was: one dense core.Sketch a slice. 90
// seconds of a stream with slices on both sides of break-even (so the
// 60-slice ring rotates; inserts arrive up to two slices late, none is
// dropped), split at random over two replicas. Merged in either order, or
// twice, the replicas serialize to the bytes of a ring fed the whole stream,
// and every window estimates the float the dense slices give — through the
// token union (light) and through the dense union (mixed) alike.
func TestRingMatchesDenseReference(t *testing.T) {
	cfg := testCfg()
	marshal := func(c *Counter) []byte {
		blob, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	decode := func(blob []byte) *Counter {
		c, err := FromBinary(blob)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for name, heavy := range map[string]int{"light": 0, "mixed": 12000} { // elements in every third slice; the others hold 5–50
		rng, state := rand.New(rand.NewSource(24)), uint64(heavy)+1
		full, a, b := newCounter(t, cfg.P, time.Second, 60), newCounter(t, cfg.P, time.Second, 60), newCounter(t, cfg.P, time.Second, 60)
		ref := make([]*core.Sketch, 90) // slice index -> that slice, dense
		for i := range ref {
			ref[i] = core.MustNew(cfg)
		}
		for s := 0; s < 90; s++ {
			n := 5 + rng.Intn(46)
			if heavy > 0 && s%3 == 0 {
				n = heavy
			}
			for i := 0; i < n; i++ {
				idx := int64(s - rng.Intn(min(s, 2)+1))
				ts, h := time.Unix(idx, 0), hashing.SplitMix64(&state)
				ref[idx].AddHash(h)
				full.AddHash(ts, h)
				to := rng.Intn(3) // to a, to b, or to both
				if to != 1 {
					a.AddHash(ts, h)
				}
				if to != 0 {
					b.AddHash(ts, h)
				}
			}
		}
		sparse := 0
		for i := range full.slots {
			if full.slots[i].sketch.IsSparse() {
				sparse++
			}
		}
		if sparse == 0 || (sparse < 60) != (heavy > 0) || full.Dropped() != 0 {
			t.Fatalf("%s: %d sparse slices of 60, %d drops: the stream does not cover what it is meant to", name, sparse, full.Dropped())
		}
		want := marshal(full)
		ab, ba := decode(marshal(a)), decode(marshal(b))
		for _, m := range []struct{ dst, src *Counter }{{ab, b}, {ab, b}, {ba, a}, {ba, ab}} {
			if err := m.dst.Merge(m.src); err != nil {
				t.Fatal(err)
			}
		}
		now := time.Unix(89, 0)
		for route, c := range map[string]*Counter{"a∪b∪b": ab, "b∪a∪(a∪b)": ba, "decoded": decode(want)} {
			if got := marshal(c); !bytes.Equal(got, want) {
				t.Errorf("%s %s: %d bytes differ from the %d of the ring fed the whole stream", name, route, len(got), len(want))
			}
			for _, slices := range []int64{1, 30, 60} {
				acc := core.MustNew(cfg)
				for idx := 89 - slices + 1; idx <= 89; idx++ {
					if err := acc.Merge(ref[idx]); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := c.Estimate(now, time.Duration(slices)*time.Second), acc.EstimateML(); got != want {
					t.Errorf("%s %s: %d-slice window estimates %v, the dense slices %v", name, route, slices, got, want)
				}
			}
		}
	}
}

// TestFromBinaryAllocatesByBytesPresent: a header is free to claim any
// geometry; what decoding allocates follows the records that are there. 30
// bytes claiming p = 26 and 65 536 slices, no records, decode to an empty
// ring of a few MB (a dense slice of that ring alone would be 224 MB).
func TestFromBinaryAllocatesByBytesPresent(t *testing.T) {
	blob := []byte{'E', 'L', 'W', '1', 2, 20, 26}
	blob = append(blob, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // slice duration
	blob = append(blob, 0x80, 0x80, 0x04)                                     // 65 536 slices
	blob = append(blob, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01) // dropped
	blob = append(blob, 0, 0)                                                 // latest, records
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := FromBinary(blob)
	runtime.ReadMemStats(&after)
	if err != nil || len(blob) != 30 {
		t.Fatalf("decoding the %d-byte header: %v", len(blob), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 || len(c.slots) != 1<<16 || c.cfg.P != 26 {
		t.Errorf("decoded %d slices at p=%d allocating %d bytes", len(c.slots), c.cfg.P, got)
	}
}
