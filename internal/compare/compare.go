// Package compare runs the distinct-counting sketches of this repository
// side by side for the paper's comparative evaluation: Table 2 (space
// efficiency at ~2 % error), Figure 10 (memory and empirical MVP over n)
// and Figure 11 (operation timings). The harness calls each sketch's own
// methods; an Algorithm names how its sketch serializes and merges.
package compare

import (
	"fmt"

	"exaloglog/internal/core"
	"exaloglog/internal/hll"
	"exaloglog/internal/hlll"
	"exaloglog/internal/pcsa"
	"exaloglog/internal/spike"
)

// Counter is what the harness calls on every compared sketch: the methods
// every sketch here has. They consume pre-computed 64-bit hash values so
// that hashing cost is identical across algorithms (the paper fixes
// Murmur3 for the same reason).
type Counter interface {
	// AddHash inserts an element by its 64-bit hash.
	AddHash(h uint64)
	// Estimate returns the distinct-count estimate.
	Estimate() float64
	// MemoryFootprint returns the approximate allocated bytes.
	MemoryFootprint() int
}

// Algorithm describes one competitor.
type Algorithm struct {
	// Name is the display name used in tables (matches the paper's rows).
	Name string
	// New creates an empty instance.
	New func() Counter
	// ConstantTimeInsert mirrors the paper's Table 2 column.
	ConstantTimeInsert bool
	// Serialize returns the serialized form of an instance made by New;
	// its length is the row's serialized size.
	Serialize func(Counter) []byte
	// Merge folds src into dst, both made by New; it fails when either
	// is another algorithm's. It is nil for an algorithm that cannot merge.
	Merge func(dst, src Counter) error
}

// Table2Algorithms returns the paper's Table 2 competitor list with the
// same parameters (each configured for roughly 2 % RMSE at n = 10^6).
func Table2Algorithms() []Algorithm {
	return []Algorithm{
		{Name: "HLL (8-bit, p=11)", New: func() Counter { return must(hll.NewDense8(11)) }, ConstantTimeInsert: true,
			Serialize: marshaled((*hll.Dense8).MarshalBinary), Merge: merged((*hll.Dense8).Merge)},
		{Name: "HLL (6-bit, p=11)", New: func() Counter { return must(hll.NewDense6(11)) }, ConstantTimeInsert: true,
			Serialize: marshaled((*hll.Dense6).MarshalBinary), Merge: merged((*hll.Dense6).Merge)},
		{Name: "HLL (ML estimator, p=11)", New: func() Counter { return hll6ML{must(hll.NewDense6(11))} }, ConstantTimeInsert: true,
			Serialize: marshaled(hll6ML.MarshalBinary), Merge: merged(func(dst, src hll6ML) error { return dst.Merge(src.Dense6) })},
		{Name: "HLL (4-bit, p=11)", New: func() Counter { return must(hll.NewDense4(11)) }, ConstantTimeInsert: false,
			Serialize: marshaled((*hll.Dense4).MarshalBinary), Merge: merged((*hll.Dense4).Merge)},
		{Name: "CPC-like (compressed PCSA, p=10)", New: func() Counter { return cpc{must(pcsa.NewWindowed(10))} }, ConstantTimeInsert: false,
			Serialize: marshaled(cpc.MarshalCompressed), Merge: merged(func(dst, src cpc) error { return dst.Merge(src.Windowed) })},
		ell("ULL (ML estimator, p=10)", core.Config{T: 0, D: 2, P: 10}, false),
		{Name: "HLLL (p=11)", New: func() Counter { return must(hlll.New(11)) }, ConstantTimeInsert: false,
			Serialize: marshaled((*hlll.Sketch).MarshalBinary), Merge: merged((*hlll.Sketch).Merge)},
		{Name: "SpikeSketch-like (128 buckets)", New: func() Counter { return must(spike.New(128)) }, ConstantTimeInsert: true,
			Serialize: marshaled((*spike.Sketch).MarshalBinary), Merge: merged((*spike.Sketch).Merge)},
		ell("ELL (t=2, d=24, p=8)", core.Config{T: 2, D: 24, P: 8}, false),
		ell("ELL (t=2, d=20, p=8)", core.Config{T: 2, D: 20, P: 8}, false),
	}
}

// Figure11Algorithms returns the algorithm set of Figure 11, including the
// ELL martingale variants and the DataSketches-style HIP-tracking HLL,
// which cannot merge: its estimate covers a single stream.
func Figure11Algorithms() []Algorithm {
	algos := []Algorithm{
		ell("ELL (t=2, d=20, p=8, ML)", core.Config{T: 2, D: 20, P: 8}, false),
		ell("ELL (t=2, d=24, p=8, ML)", core.Config{T: 2, D: 24, P: 8}, false),
		ell("ELL (t=2, d=20, p=8, martingale)", core.Config{T: 2, D: 20, P: 8}, true),
		ell("ELL (t=2, d=24, p=8, martingale)", core.Config{T: 2, D: 24, P: 8}, true),
		{Name: "HLL (8-bit, p=11, HIP)", New: func() Counter { return must(hll.NewHIP(11)) }, ConstantTimeInsert: true,
			Serialize: marshaled(func(h *hll.HIP) ([]byte, error) { return h.Sketch().MarshalBinary() })},
	}
	return append(algos, Table2Algorithms()...)
}

// Figure10Algorithms extends the Table 2 set with the hybrid
// (sparse→dense) ELL sketch, demonstrating the paper's Section 5.2 remark
// that "a sparse mode could also be easily implemented for ELL": its
// memory footprint scales linearly for small n like the DataSketches
// sparse modes do.
func Figure10Algorithms() []Algorithm {
	return append(Table2Algorithms(), Algorithm{
		Name:               "ELL hybrid (sparse, t=2, d=20, p=8)",
		New:                func() Counter { return hybrid{must(core.NewHybrid(core.Config{T: 2, D: 20, P: 8}))} },
		ConstantTimeInsert: true,
		Serialize:          marshaled(hybrid.MarshalBinary),
		Merge:              merged(func(dst, src hybrid) error { return dst.Merge(src.Hybrid) }),
	})
}

// ell is an ExaLogLog row. It serializes the register bytes alone,
// matching the paper's serialized-size accounting for ELL.
func ell(name string, cfg core.Config, martingale bool) Algorithm {
	return Algorithm{
		Name: name,
		New: func() Counter {
			s := core.MustNew(cfg)
			if martingale {
				if err := s.EnableMartingale(); err != nil {
					panic(err)
				}
			}
			return s
		},
		ConstantTimeInsert: true,
		Serialize:          func(c Counter) []byte { return c.(*core.Sketch).RegisterBytes() },
		Merge:              merged((*core.Sketch).Merge),
	}
}

// hll6ML is the 6-bit HLL estimated by maximum likelihood.
type hll6ML struct{ *hll.Dense6 }

func (s hll6ML) Estimate() float64 { return s.EstimateML() }

// cpc is the CPC-like baseline: a windowed PCSA sketch (compact in
// memory, amortized-constant inserts) estimated by maximum likelihood,
// whose serialized form is the expensive entropy-coded one.
type cpc struct{ *pcsa.Windowed }

func (s cpc) Estimate() float64 { return s.EstimateML() }

// hybrid is the ELL hybrid, whose AddHash also reports whether the
// sketch changed.
type hybrid struct{ *core.Hybrid }

func (h hybrid) AddHash(hash uint64) { h.Hybrid.AddHash(hash) }

// must returns s, or panics on a constructor's error.
func must[S any](s S, err error) S {
	if err != nil {
		panic(err)
	}
	return s
}

// marshaled makes an Algorithm.Serialize of a sketch's marshal method.
func marshaled[S Counter](marshal func(S) ([]byte, error)) func(Counter) []byte {
	return func(c Counter) []byte {
		b, _ := marshal(c.(S))
		return b
	}
}

// merged makes an Algorithm.Merge of a sketch's merge method.
func merged[S Counter](merge func(dst, src S) error) func(dst, src Counter) error {
	return func(dst, src Counter) error {
		d, ok := dst.(S)
		s, ok2 := src.(S)
		if !ok || !ok2 {
			return fmt.Errorf("compare: cannot merge %T with %T", dst, src)
		}
		return merge(d, s)
	}
}
