package core

import (
	"fmt"
	"slices"
	"testing"
)

// BenchmarkAddHash is the dense insert on the default configuration, whose
// 28-bit registers go through bitpack's generic accessor: the row that
// must not slow down when the register array's load padding goes away.
func BenchmarkAddHash(b *testing.B) {
	s := MustNew(RecommendedML(12))
	r := rng(1)
	hashes := make([]uint64, 1<<16)
	for i := range hashes {
		hashes[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddHash(hashes[i&(len(hashes)-1)])
	}
}

// BenchmarkSortDistinct times the two sorts sortDistinct chooses between,
// on n random tokens of the default configuration (20 bits): radixMin is
// the n from which the radix sort is faster.
func BenchmarkSortDistinct(b *testing.B) {
	cfg := RecommendedML(12)
	w := uint(cfg.tokenV() + 6)
	r := rng(1)
	for _, n := range []int{32, 64, 128, 192, 256, 512, 1024} {
		src := make([]uint64, n)
		for i := range src {
			src[i] = TokenFromHash(r.Uint64(), cfg.tokenV())
		}
		a, tmp := make([]uint64, n), make([]uint64, n)
		b.Run(fmt.Sprintf("%d/radix", n), func(b *testing.B) {
			for range b.N {
				copy(a, src)
				sortTokens(a, tmp, w)
			}
		})
		b.Run(fmt.Sprintf("%d/slices", n), func(b *testing.B) {
			for range b.N {
				copy(a, src)
				slices.Sort(a)
			}
		})
	}
}

// BenchmarkEstimate is one ML estimate of an ELL(2,20) sketch filled with
// n distinct random hashes: dense at p = 12, the server's default, and
// sparse, the Hybrid's token mode, at p = 16, which keeps 10⁴ tokens
// sparse. The dense rows scan all 4 096 registers whatever n is; n moves
// how many indicator bits are set and how far u climbs.
func BenchmarkEstimate(b *testing.B) {
	r := rng(1)
	for _, n := range []int{1_000, 100_000, 10_000_000} {
		s := MustNew(RecommendedML(12))
		for range n {
			s.AddHash(r.Uint64())
		}
		b.Run(fmt.Sprintf("dense/n%d", n), func(b *testing.B) {
			for range b.N {
				s.Estimate()
			}
		})
	}
	for _, n := range []int{1_000, 10_000} {
		h, err := NewHybrid(RecommendedML(16))
		if err != nil {
			b.Fatal(err)
		}
		for range n {
			h.AddHash(r.Uint64())
		}
		if !h.IsSparse() {
			b.Fatalf("%d tokens left sparse mode at p = 16", n)
		}
		b.Run(fmt.Sprintf("sparse/n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				h.Estimate()
			}
		})
	}
}
