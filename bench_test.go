// Micro-benchmarks of the sketch itself: ablations of the paper's design
// choices (insert cost against d and p, the Newton solver, martingale
// tracking, token conversion, reduction, compressed serialization), the
// Hybrid sketch's insert, estimate, bulk and union paths, and the atomic
// sketch's concurrent insert.
//
// The paper's figures and tables are reproduced by cmd/ell-paper (its
// figure11 entry times Figure 11's operations for every algorithm),
// and recorded end-to-end figures come from benchmark/. Absolute numbers
// depend on the host.
package exaloglog_test

import (
	"fmt"
	"testing"

	"exaloglog"
	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
)

// ---- Ablations ----

// BenchmarkAblationInsertByD shows that insert cost is independent of d
// (constant-time insert regardless of register width).
func BenchmarkAblationInsertByD(b *testing.B) {
	for _, d := range []int{0, 8, 16, 20, 24} {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			s := core.MustNew(core.Config{T: 2, D: d, P: 10})
			state := uint64(11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AddHash(hashing.SplitMix64(&state))
			}
		})
	}
}

// BenchmarkAblationInsertByP shows that insert cost is independent of the
// precision (sketch size) — the paper's constant-time claim.
func BenchmarkAblationInsertByP(b *testing.B) {
	for _, p := range []int{4, 8, 12, 16, 20} {
		p := p
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			s := core.MustNew(core.Config{T: 2, D: 20, P: p})
			state := uint64(12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AddHash(hashing.SplitMix64(&state))
			}
		})
	}
}

// BenchmarkAblationMLSolver isolates the Newton solver cost (Algorithm 8).
func BenchmarkAblationMLSolver(b *testing.B) {
	s := core.MustNew(core.Config{T: 2, D: 20, P: 12})
	state := uint64(13)
	for i := 0; i < 500000; i++ {
		s.AddHash(hashing.SplitMix64(&state))
	}
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += s.EstimateML()
	}
	_ = sink
}

// BenchmarkAblationMartingaleOverhead compares insert with and without
// martingale tracking.
func BenchmarkAblationMartingaleOverhead(b *testing.B) {
	for _, mart := range []bool{false, true} {
		mart := mart
		name := "off"
		if mart {
			name = "on"
		}
		b.Run("martingale="+name, func(b *testing.B) {
			s := core.MustNew(core.Config{T: 2, D: 16, P: 10})
			if mart {
				if err := s.EnableMartingale(); err != nil {
					b.Fatal(err)
				}
			}
			state := uint64(14)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AddHash(hashing.SplitMix64(&state))
			}
		})
	}
}

// BenchmarkAblationTokenToDense times the sparse→dense conversion.
func BenchmarkAblationTokenToDense(b *testing.B) {
	ts, err := exaloglog.NewTokenSet(26)
	if err != nil {
		b.Fatal(err)
	}
	state := uint64(15)
	for i := 0; i < 10000; i++ {
		ts.AddHash(hashing.SplitMix64(&state))
	}
	cfg := exaloglog.Config{T: 2, D: 20, P: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.ToSketch(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCompressedSerialize compares the plain register copy
// with the entropy-coded serialization (Section 6 extension): the latter
// is far smaller but orders of magnitude slower — the CPC trade-off.
func BenchmarkAblationCompressedSerialize(b *testing.B) {
	s := core.MustNew(core.Config{T: 2, D: 20, P: 10})
	state := uint64(17)
	for i := 0; i < 100000; i++ {
		s.AddHash(hashing.SplitMix64(&state))
	}
	b.Run("plain", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			data, err := s.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			n += len(data)
		}
		_ = n
	})
	b.Run("entropy-coded", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			data, err := s.MarshalCompressed()
			if err != nil {
				b.Fatal(err)
			}
			n += len(data)
		}
		_ = n
	})
}

// BenchmarkHybridInsert measures the hybrid sketch's insert cost: "grow" on
// a sketch that starts empty and soon runs dense, "first1000" on the first
// 1000 elements of a key, and single inserts into a sparse sketch kept at n
// resident tokens, where each insert finds its bucket by popcount over the
// two bit vectors and moves what lies above it in the three regions. The 64
// inserts of n=100 and n=1000 cross a power of two (128, 1024), where the
// set is encoded anew with a narrower remainder — once per 64 inserts here,
// once per doubling in a key's life, which "first1000" has at its true
// rate; n=5000 and n=15000 (sparse only since the succinct encoding) cross
// none.
func BenchmarkHybridInsert(b *testing.B) {
	cfg := exaloglog.Config{T: 2, D: 20, P: 12}
	b.Run("grow", func(b *testing.B) {
		h, err := exaloglog.NewHybrid(cfg)
		if err != nil {
			b.Fatal(err)
		}
		state := uint64(18)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.AddHash(hashing.SplitMix64(&state))
		}
	})
	b.Run("first1000", func(b *testing.B) {
		state := uint64(18)
		hashes := make([]uint64, 1000)
		for i := range hashes {
			hashes[i] = hashing.SplitMix64(&state)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(hashes) {
			h, _ := exaloglog.NewHybrid(cfg)
			for _, x := range hashes {
				h.AddHash(x)
			}
		}
	})
	for _, n := range []int{100, 1000, 5000, 15000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			base, err := exaloglog.NewHybrid(cfg)
			if err != nil {
				b.Fatal(err)
			}
			state := uint64(18)
			for base.Tokens() < n {
				base.AddHash(hashing.SplitMix64(&state))
			}
			// 64 inserts on a fresh copy of the n tokens, so the array stays
			// near n whatever b.N is; the copy adds 1/64 of one memcpy and
			// allocation to each insert.
			h := base.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 {
					h = base.Clone()
				}
				h.AddHash(hashing.SplitMix64(&state))
			}
			if !h.IsSparse() {
				b.Fatalf("n=%d: ran dense", n)
			}
		})
	}
}

// BenchmarkHybridEstimate measures Estimate in both modes: sparse, where
// only the registers the tokens touch are visited, and dense.
func BenchmarkHybridEstimate(b *testing.B) {
	for _, n := range []int{16, 1000, 10000, 60000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h, err := exaloglog.NewHybrid(exaloglog.Config{T: 2, D: 20, P: 12})
			if err != nil {
				b.Fatal(err)
			}
			state := uint64(19)
			for i := 0; i < n; i++ {
				h.AddHash(hashing.SplitMix64(&state))
			}
			if h.IsSparse() != (n < 40000) { // break-even is near 44 000 elements
				b.Fatalf("n=%d: sparse=%v", n, h.IsSparse())
			}
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0.0
			for i := 0; i < b.N; i++ {
				sink += h.Estimate()
			}
			_ = sink
		})
	}
}

// BenchmarkHybridBulk measures the paths a replica and a bulk load take
// through a sparse sketch of 1000 elements: AddHashes of all of them into an
// empty sketch, encoding and decoding the blob, and merging a sketch that
// adds nothing.
func BenchmarkHybridBulk(b *testing.B) {
	cfg := exaloglog.Config{T: 2, D: 20, P: 12}
	state := uint64(21)
	hashes := make([]uint64, 1000)
	for i := range hashes {
		hashes[i] = hashing.SplitMix64(&state)
	}
	full, err := exaloglog.NewHybrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	full.AddHashes(hashes)
	blob, err := full.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("addhashes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, _ := exaloglog.NewHybrid(cfg)
			h.AddHashes(hashes)
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := full.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		var h exaloglog.Hybrid
		for i := 0; i < b.N; i++ {
			if err := h.UnmarshalBinary(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merge-known", func(b *testing.B) {
		b.ReportAllocs()
		dst := full.Clone()
		for i := 0; i < b.N; i++ {
			if err := dst.Merge(full); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHybridUnion is the public API's union of 8 blobs of 1000-element
// keys: decode them, fold them together with Merge — the token set is
// encoded anew after every part and crosses break-even on the way — and
// estimate the result. The store and the cluster take such unions with
// internal/core's Union instead, which encodes nothing
// (server's BenchmarkStoreCountSparse/n=1000).
func BenchmarkHybridUnion(b *testing.B) {
	cfg := exaloglog.Config{T: 2, D: 20, P: 12}
	state := uint64(22)
	var blobs [][]byte
	for key := 0; key < 8; key++ {
		h, err := exaloglog.NewHybrid(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			h.AddHash(hashing.SplitMix64(&state))
		}
		blob, err := h.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		var acc *exaloglog.Hybrid
		for _, blob := range blobs {
			var h exaloglog.Hybrid
			if err := h.UnmarshalBinary(blob); err != nil {
				b.Fatal(err)
			}
			if acc == nil {
				acc = &h
			} else if err := acc.Merge(&h); err != nil {
				b.Fatal(err)
			}
		}
		sink += acc.Estimate()
	}
	_ = sink
}

// BenchmarkAtomicInsertParallel measures the CAS-based concurrent insert
// under contention from all available cores.
func BenchmarkAtomicInsertParallel(b *testing.B) {
	s := exaloglog.NewAtomic(12)
	b.RunParallel(func(pb *testing.PB) {
		state := uint64(19)
		for pb.Next() {
			s.AddHash(hashing.SplitMix64(&state))
		}
	})
}

// BenchmarkAblationReduce times lossless precision reduction (Algorithm 6).
func BenchmarkAblationReduce(b *testing.B) {
	s := core.MustNew(core.Config{T: 2, D: 20, P: 12})
	state := uint64(16)
	for i := 0; i < 200000; i++ {
		s.AddHash(hashing.SplitMix64(&state))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReduceTo(16, 8); err != nil {
			b.Fatal(err)
		}
	}
}
