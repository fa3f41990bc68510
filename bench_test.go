// Benchmarks regenerating the paper's tables and figures. Each evaluation
// artifact has at least one bench:
//
//	Figure 1/2/4-7  → BenchmarkFigure1Series, BenchmarkFigure2PMFs,
//	                  BenchmarkFigure4to7Curves (analytic generation)
//	Figure 8        → BenchmarkFigure8ErrorSimulation (one run/iteration)
//	Figure 9        → BenchmarkFigure9TokenSimulation
//	Table 2         → BenchmarkTable2 (scaled-down row computation)
//	Figure 10       → BenchmarkFigure10 (scaled-down sweep)
//	Figure 11       → BenchmarkInsert*/BenchmarkEstimate*/
//	                  BenchmarkSerialize*/BenchmarkMerge* per algorithm
//
// plus ablation benches for the design choices called out in DESIGN.md
// (d-sweep, bias correction, token conversion).
//
// Absolute numbers depend on the host; the paper-relevant comparisons are
// the relative ones across algorithms.
package exaloglog_test

import (
	"fmt"
	"math"
	"testing"

	"exaloglog"
	"exaloglog/internal/compare"
	"exaloglog/internal/core"
	"exaloglog/internal/geomell"
	"exaloglog/internal/hashing"
	"exaloglog/internal/mvp"
	"exaloglog/internal/simulation"
)

// ---- Figure 11: per-operation micro-benchmarks per algorithm ----

func benchAlgorithms() []compare.Algorithm { return compare.Figure11Algorithms() }

func BenchmarkInsert(b *testing.B) {
	for _, a := range benchAlgorithms() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			c := a.New()
			var key [16]byte
			state := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := hashing.SplitMix64(&state)
				for j := 0; j < 8; j++ {
					key[j] = byte(v >> (8 * j))
				}
				h, _ := hashing.Murmur3_128(key[:], 0)
				c.AddHash(h)
			}
		})
	}
}

func BenchmarkEstimate(b *testing.B) {
	for _, a := range benchAlgorithms() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			c := a.New()
			state := uint64(2)
			for i := 0; i < 100000; i++ {
				c.AddHash(hashing.SplitMix64(&state))
			}
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0.0
			for i := 0; i < b.N; i++ {
				sink += c.Estimate()
			}
			_ = sink
		})
	}
}

func BenchmarkSerialize(b *testing.B) {
	for _, a := range benchAlgorithms() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			c := a.New()
			state := uint64(3)
			for i := 0; i < 100000; i++ {
				c.AddHash(hashing.SplitMix64(&state))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n += len(c.Serialize())
			}
			_ = n
		})
	}
}

func BenchmarkMerge(b *testing.B) {
	for _, a := range benchAlgorithms() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			if err := a.New().Merge(a.New()); err != nil {
				// E.g. the HIP-tracking HLL: merging would invalidate its
				// running estimate (same reason the paper has no merge
				// numbers for some baselines).
				b.Skipf("not mergeable: %v", err)
			}
			other := a.New()
			state := uint64(4)
			for i := 0; i < 100000; i++ {
				other.AddHash(hashing.SplitMix64(&state))
			}
			c := a.New()
			st := uint64(5)
			for k := 0; k < 20000; k++ {
				c.AddHash(hashing.SplitMix64(&st))
			}
			// One warm-up merge so the timed loop measures the steady
			// state: scanning both register sets with almost no writes
			// (the union has already been absorbed). Rebuilding a fresh
			// receiver per iteration would cost ~1000x the merge itself
			// and drown the measurement in untimed setup.
			if err := c.Merge(other); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Merge(other); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMergeAndEstimate(b *testing.B) {
	for _, a := range benchAlgorithms() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			if err := a.New().Merge(a.New()); err != nil {
				// E.g. the HIP-tracking HLL: merging would invalidate its
				// running estimate (same reason the paper has no merge
				// numbers for some baselines).
				b.Skipf("not mergeable: %v", err)
			}
			other := a.New()
			state := uint64(6)
			for i := 0; i < 50000; i++ {
				other.AddHash(hashing.SplitMix64(&state))
			}
			c := a.New()
			st := uint64(7)
			for k := 0; k < 20000; k++ {
				c.AddHash(hashing.SplitMix64(&st))
			}
			// Steady-state protocol; see BenchmarkMerge.
			if err := c.Merge(other); err != nil {
				b.Fatal(err)
			}
			sink := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Merge(other); err != nil {
					b.Fatal(err)
				}
				sink += c.Estimate()
			}
			_ = sink
		})
	}
}

// ---- Figures 1, 2, 4-7: analytic series generation ----

func BenchmarkFigure1Series(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := mvp.Figure1([]float64{2, 3, 4, 5, 6, 8})
		if len(series) != 6 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFigure2PMFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, a := mvp.Figure2(2, 21)
		if len(g.Points) == 0 || len(a.Points) == 0 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFigure4to7Curves(b *testing.B) {
	kinds := []mvp.CurveKind{mvp.KindDenseML, mvp.KindDenseMartingale, mvp.KindCompressedML, mvp.KindCompressedMartingale}
	for i := 0; i < b.N; i++ {
		for _, k := range kinds {
			for t := 0; t <= 3; t++ {
				c := mvp.Curve(k, t, 60)
				if len(c.Points) != 61 {
					b.Fatal("bad curve")
				}
			}
		}
	}
}

// ---- Figure 8: error simulation (one full run per iteration) ----

func BenchmarkFigure8ErrorSimulation(b *testing.B) {
	cfg := core.Config{T: 2, D: 20, P: 8}
	cps := simulation.Checkpoints(1e21, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := simulation.RunELL(cfg, cps, 1e4, uint64(i)+1, true)
		if len(res) != len(cps) {
			b.Fatal("bad result")
		}
	}
}

// ---- Figure 9: token estimation simulation ----

func BenchmarkFigure9TokenSimulation(b *testing.B) {
	cps := simulation.Checkpoints(1e5, 3)
	for i := 0; i < b.N; i++ {
		res := simulation.RunTokens(12, cps, uint64(i)+1)
		if len(res) != len(cps) {
			b.Fatal("bad result")
		}
	}
}

// ---- Table 2 / Figure 10: scaled-down sweeps ----

func BenchmarkTable2(b *testing.B) {
	algos := compare.Table2Algorithms()
	for i := 0; i < b.N; i++ {
		rows := compare.Table2(algos, 20000, 1, uint64(i)+1)
		if len(rows) != len(algos) {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	algos := compare.Table2Algorithms()[:2]
	ns := []int{10, 100, 1000, 10000}
	for i := 0; i < b.N; i++ {
		pts := compare.Figure10(algos, ns, 1, uint64(i)+1)
		if len(pts) != len(algos)*len(ns) {
			b.Fatal("bad points")
		}
	}
}

// ---- Ablations (DESIGN.md section 5) ----

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

// BenchmarkHybridUnion is what a coordinator does for a PFCOUNT over 8 keys
// of 1000 elements: decode the 8 blobs, merge them one after the other — the
// accumulator crosses break-even on the way — and estimate the union.
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

// BenchmarkAblationUpdateDistribution compares inserting with the
// approximated update-value distribution (8) (branch-free shifts and a
// leading-zero count) against the exact geometric distribution (2)
// (floating-point log transform) — the engineering motivation of the
// paper's Section 2.2 for introducing (8).
func BenchmarkAblationUpdateDistribution(b *testing.B) {
	b.Run("approximate-eq8", func(b *testing.B) {
		s := core.MustNew(core.Config{T: 2, D: 16, P: 10})
		state := uint64(20)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AddHash(hashing.SplitMix64(&state))
		}
	})
	b.Run("geometric-eq2", func(b *testing.B) {
		s, err := geomell.New(math.Pow(2, 0.25), 16, 10)
		if err != nil {
			b.Fatal(err)
		}
		state := uint64(20)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AddHash(hashing.SplitMix64(&state))
		}
	})
}

// BenchmarkAblationMLSolverVsBisection compares ELL's specialized Newton
// solver (possible because (8) yields power-of-two likelihood terms)
// against the generic bisection the geometric variant is forced into.
func BenchmarkAblationMLSolverVsBisection(b *testing.B) {
	b.Run("newton-eq15", func(b *testing.B) {
		s := core.MustNew(core.Config{T: 2, D: 16, P: 8})
		state := uint64(21)
		for i := 0; i < 50000; i++ {
			s.AddHash(hashing.SplitMix64(&state))
		}
		b.ResetTimer()
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += s.EstimateML()
		}
		_ = sink
	})
	b.Run("bisection-generic", func(b *testing.B) {
		s, err := geomell.New(math.Pow(2, 0.25), 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		state := uint64(21)
		for i := 0; i < 50000; i++ {
			s.AddHash(hashing.SplitMix64(&state))
		}
		b.ResetTimer()
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += s.EstimateML()
		}
		_ = sink
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
