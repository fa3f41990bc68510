package compare

import (
	"math"
	"testing"
	"testing/quick"

	"exaloglog/internal/hashing"
)

// The distributed-systems invariants of Section 1 of the paper, checked
// uniformly across every algorithm in the comparison: idempotency (adding
// a duplicate never changes the estimate), order-invariance of the
// state-based estimate, and the merge homomorphism estimate(A ∪ B) from
// merged partial sketches. HIP/martingale variants are excluded from the
// order-invariance property — their running estimates legitimately depend
// on the state-change sequence — which the Table 2 set doesn't contain.

func hashesFromSeed(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	state := seed
	for i := range out {
		out[i] = hashing.SplitMix64(&state)
	}
	return out
}

func TestQuickIdempotencyAllAlgorithms(t *testing.T) {
	for _, a := range Table2Algorithms() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			f := func(seed uint64, nSeed uint16) bool {
				n := int(nSeed)%500 + 1
				hs := hashesFromSeed(seed, n)
				c := a.New()
				for _, h := range hs {
					c.AddHash(h)
				}
				before := c.Estimate()
				for _, h := range hs {
					c.AddHash(h)
					c.AddHash(h)
				}
				return c.Estimate() == before
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestQuickOrderInvarianceAllAlgorithms(t *testing.T) {
	for _, a := range Table2Algorithms() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			f := func(seed uint64, nSeed uint16) bool {
				n := int(nSeed)%400 + 2
				hs := hashesFromSeed(seed, n)
				fwd := a.New()
				for _, h := range hs {
					fwd.AddHash(h)
				}
				rev := a.New()
				for i := len(hs) - 1; i >= 0; i-- {
					rev.AddHash(hs[i])
				}
				return fwd.Estimate() == rev.Estimate()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestQuickMergeHomomorphismAllAlgorithms(t *testing.T) {
	for _, a := range Table2Algorithms() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			f := func(seed uint64, splitSeed uint16) bool {
				hs := hashesFromSeed(seed, 600)
				split := int(splitSeed) % len(hs)
				left, right, union := a.New(), a.New(), a.New()
				for i, h := range hs {
					if i < split {
						left.AddHash(h)
					} else {
						right.AddHash(h)
					}
					union.AddHash(h)
				}
				if err := a.Merge(left, right); err != nil {
					return false
				}
				return left.Estimate() == union.Estimate()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSerializeStableUnderReserialization: serializing twice yields
// identical bytes (no hidden nondeterminism, e.g. map iteration order).
func TestSerializeStableUnderReserialization(t *testing.T) {
	for _, a := range Table2Algorithms() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			c := a.New()
			state := uint64(99)
			for i := 0; i < 30000; i++ {
				c.AddHash(hashing.SplitMix64(&state))
			}
			s1 := a.Serialize(c)
			s2 := a.Serialize(c)
			if string(s1) != string(s2) {
				t.Error("serialization not deterministic")
			}
		})
	}
}

// TestEstimatesFiniteAndMonotoneish: estimates grow (weakly, within
// noise) as more distinct elements arrive, and never go negative or
// non-finite.
func TestEstimatesFiniteAndSane(t *testing.T) {
	for _, a := range Figure10Algorithms() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			c := a.New()
			state := uint64(123)
			prev := 0.0
			for _, n := range []int{10, 100, 1000, 10000} {
				for c2 := 0; c2 < n; c2++ {
					c.AddHash(hashing.SplitMix64(&state))
				}
				est := c.Estimate()
				if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
					t.Fatalf("estimate %v at n≈%d", est, n)
				}
				// A 10x increase in the stream must never *reduce* the
				// estimate by more than statistical noise allows.
				if est < prev*0.5 {
					t.Fatalf("estimate dropped from %.1f to %.1f", prev, est)
				}
				prev = est
			}
		})
	}
}
