package window

import (
	"strconv"
	"testing"
	"time"

	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
)

var benchBase = time.Date(2026, 6, 13, 0, 0, 0, 0, time.UTC)

// filledRing returns the served ring geometry — 60 one-second slices of
// p = 12 ELL(2,20) — holding perSlice elements a slice, and the hash state
// the next fresh element comes from.
func filledRing(b *testing.B, perSlice int) (*Counter, uint64) {
	b.Helper()
	c, err := New(core.RecommendedML(12), time.Second, 60)
	if err != nil {
		b.Fatal(err)
	}
	state := uint64(1)
	for s := 0; s < 60; s++ {
		for i := 0; i < perSlice; i++ {
			c.AddHash(benchBase.Add(time.Duration(s)*time.Second), hashing.SplitMix64(&state))
		}
	}
	return c, state
}

// BenchmarkWindowAddHash measures an insert of a new element into a slice
// already holding 40, 1000 or 40 000 — below break-even (some 44 000), so
// a token insert. The ring is restored before its slices grow by an eighth.
func BenchmarkWindowAddHash(b *testing.B) {
	for _, perSlice := range []int{40, 1000, 40000} {
		b.Run(strconv.Itoa(perSlice), func(b *testing.B) {
			full, state := filledRing(b, perSlice)
			blob, err := full.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			c := full
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%(60*perSlice/8) == 0 {
					b.StopTimer()
					if c, err = FromBinary(blob); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				c.AddHash(benchBase.Add(time.Duration(i%60)*time.Second), hashing.SplitMix64(&state))
			}
		})
	}
}

// BenchmarkWindowEstimate30 measures a half-span query at 1000 elements a
// slice: 30 token sets sorted into one that stays below break-even, one ML
// estimation over its tokens.
func BenchmarkWindowEstimate30(b *testing.B) {
	c, _ := filledRing(b, 1000)
	now := benchBase.Add(59 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Estimate(now, 30*time.Second)
	}
}

// BenchmarkWindowMarshal measures serializing that ring, the cost of every
// DUMP a WCOUNT gathers.
func BenchmarkWindowMarshal(b *testing.B) {
	c, _ := filledRing(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := c.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
	}
}
