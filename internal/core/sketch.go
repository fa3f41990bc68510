package core

import (
	"fmt"
	"math/bits"

	"exaloglog/internal/bitpack"
	"exaloglog/internal/hashing"
)

// nlz returns the number of leading zeros of the 64-bit value.
func nlz(v uint64) int { return bits.LeadingZeros64(v) }

// Sketch is an ExaLogLog sketch. It supports constant-time insertion,
// merging of equally-parameterized sketches, reduction to smaller
// parameters, and distinct-count estimation via maximum likelihood or,
// optionally, a martingale estimator.
//
// A Sketch is not safe for concurrent mutation; guard it with a mutex or
// use one sketch per goroutine and Merge.
type Sketch struct {
	cfg  Config
	regs *bitpack.Array

	// Optional martingale (HIP) estimator state, enabled by
	// EnableMartingale. muHi/muLo hold the exact state-change probability
	// scaled by 2^64 as a 128-bit integer (initially exactly 2^64), so the
	// estimator increments are reproducible and free of drift beyond
	// float64 rounding of the accumulated sum.
	martingale   bool
	martingaleN  float64
	muHi, muLo   uint64
	changedCount uint64 // number of state-changing insertions (diagnostics)
}

// New creates an empty ExaLogLog sketch with the given configuration.
func New(cfg Config) (*Sketch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sketch{
		cfg:  cfg,
		regs: bitpack.New(cfg.NumRegisters(), cfg.RegisterWidth()),
	}
	s.resetMartingale()
	return s, nil
}

// MustNew is New but panics on invalid configuration; intended for
// compile-time-constant configurations.
func MustNew(cfg Config) *Sketch {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Recommended configurations from Section 2.4 of the paper.

// RecommendedML returns the most space-efficient configuration for
// ML estimation, ELL(t=2, d=20): MVP 3.67, 43 % less space than HLL.
func RecommendedML(p int) Config { return Config{T: 2, D: 20, P: p} }

// RecommendedFast returns ELL(t=2, d=24): MVP 3.78, 32-bit registers that
// allow the fastest register access and CAS-friendly alignment.
func RecommendedFast(p int) Config { return Config{T: 2, D: 24, P: p} }

// RecommendedCompact returns ELL(t=1, d=9): MVP 3.90 with 16-bit registers.
func RecommendedCompact(p int) Config { return Config{T: 1, D: 9, P: p} }

// RecommendedMartingale returns ELL(t=2, d=16): MVP 2.77 under martingale
// estimation, 33 % less space than HLL, 24-bit registers.
func RecommendedMartingale(p int) Config { return Config{T: 2, D: 16, P: p} }

// ConfigHLL returns the HyperLogLog special case ELL(0,0).
func ConfigHLL(p int) Config { return Config{T: 0, D: 0, P: p} }

// ConfigEHLL returns the ExtendedHyperLogLog special case ELL(0,1).
func ConfigEHLL(p int) Config { return Config{T: 0, D: 1, P: p} }

// ConfigULL returns the UltraLogLog special case ELL(0,2).
func ConfigULL(p int) Config { return Config{T: 0, D: 2, P: p} }

// Config returns the sketch parameters.
func (s *Sketch) Config() Config { return s.cfg }

// NumRegisters returns m = 2^p.
func (s *Sketch) NumRegisters() int { return s.cfg.NumRegisters() }

// Register returns the raw value of register i (for tests and tooling).
func (s *Sketch) Register(i int) uint64 { return s.regs.Get(i) }

// setRegister overwrites register i (for tests and deserialization).
func (s *Sketch) setRegister(i int, v uint64) { s.regs.Set(i, v) }

// SizeBytes returns the dense register array size in bytes.
func (s *Sketch) SizeBytes() int { return s.regs.SizeBytes() }

// MemoryFootprint returns the approximate total in-memory size in bytes:
// the register array plus fixed struct overhead. This mirrors the paper's
// "total space allocated by the whole data structure" accounting in
// Table 2.
func (s *Sketch) MemoryFootprint() int {
	const structOverhead = 96 // Sketch + bitpack.Array headers, pointers
	return s.regs.SizeBytes() + structOverhead
}

// Reset restores the empty state (and martingale state, if enabled).
func (s *Sketch) Reset() {
	s.regs.Reset()
	s.resetMartingale()
	s.changedCount = 0
}

// Clone returns a deep copy, including martingale state.
func (s *Sketch) Clone() *Sketch {
	// Field by field: a copy of *s would hold s.regs for a moment, and the
	// compiler would take all s points to as escaping with it — including
	// the caller's stack buffer a token batch that Hybrid.Absorb copies may
	// lie in, which would then move to the heap.
	return &Sketch{cfg: s.cfg, regs: s.regs.Clone(), martingale: s.martingale,
		martingaleN: s.martingaleN, muHi: s.muHi, muLo: s.muLo, changedCount: s.changedCount}
}

// Add inserts an element given as a byte slice. The element is hashed with
// the package's default 64-bit hash (WyHash-style).
func (s *Sketch) Add(element []byte) {
	s.AddHash(hashing.Wy64(element, 0))
}

// AddString inserts a string element without allocating.
func (s *Sketch) AddString(element string) {
	s.AddHash(hashing.WyString(element, 0))
}

// AddUint64 inserts a 64-bit integer element.
func (s *Sketch) AddUint64(element uint64) {
	s.AddHash(hashing.Wy64Uint64(element, 0))
}

// AddHash inserts an element by its 64-bit hash value, implementing
// Algorithm 2 of the paper. The operation is constant-time, branch-light
// and allocation-free. Inserting the same hash again never changes the
// state (idempotency), and insertion order never matters (commutativity).
func (s *Sketch) AddHash(h uint64) {
	i := s.cfg.registerIndex(h)
	k := s.cfg.updateValue(h)
	r, at := s.regs.Load(i)
	rNew := updateRegister(r, k, s.cfg.D)
	if rNew != r {
		s.noteChange(r, rNew)
		s.regs.Store(at, rNew)
	}
}

// AddPair applies update value k directly to register i, bypassing the
// hash-splitting of Algorithm 2. It is the entry point for the
// waiting-time simulation strategy of Section 5.1, where (register,
// update value) occurrence events are sampled instead of hashes; it
// updates the martingale state exactly like AddHash.
func (s *Sketch) AddPair(i int, k uint64) {
	r, at := s.regs.Load(i)
	rNew := updateRegister(r, k, s.cfg.D)
	if rNew != r {
		s.noteChange(r, rNew)
		s.regs.Store(at, rNew)
	}
}

// updateRegister applies update value k to register value r with d
// indicator bits (the core of Algorithm 2, implemented verbatim).
//
// On a new maximum the old indicator bits — with the occurrence bit 2^d for
// the previous maximum prepended — are shifted right by the distance delta
// so they keep referring to the same absolute update values. Note that for
// an empty register this leaves a set bit at position d-k that nominally
// marks "update value 0"; Algorithm 2 produces it, it is never read by any
// estimator (Algorithm 3 and h only inspect values >= 1), and keeping it
// preserves exact state-identity with merge (Algorithm 5) and reduction
// (Algorithm 6).
func updateRegister(r, k uint64, d int) uint64 {
	u := r >> uint(d)
	if k > u {
		delta := k - u
		// Go defines x>>s as 0 for s >= 64, so a large delta is safe.
		shifted := (uint64(1)<<uint(d) + r&(uint64(1)<<uint(d)-1)) >> delta
		return k<<uint(d) | shifted
	}
	if k < u && int64(d)+int64(k)-int64(u) >= 0 {
		// Record the occurrence of a smaller update value in range.
		return r | uint64(1)<<uint(int64(d)+int64(k)-int64(u))
	}
	return r
}

// MergeRegister combines two register values with identical parameters
// (Algorithm 5). The result is the register value that direct insertion of
// the union of both update streams would have produced.
func MergeRegister(r, rp uint64, d int) uint64 {
	u := r >> uint(d)
	up := rp >> uint(d)
	switch {
	case u > up && up > 0:
		sh := u - up
		if sh >= 64 {
			return r
		}
		return r | (uint64(1)<<uint(d)+rp&(uint64(1)<<uint(d)-1))>>sh
	case up > u && u > 0:
		sh := up - u
		if sh >= 64 {
			return rp
		}
		return rp | (uint64(1)<<uint(d)+r&(uint64(1)<<uint(d)-1))>>sh
	default:
		return r | rp
	}
}

// Merge folds other into s. Both sketches must have identical parameters;
// use ReduceTo first to align differently-configured sketches (they must
// share the same t). Merging invalidates s's martingale estimate (the
// martingale estimator is only defined for a single insertion stream), so
// the martingale state is disabled on s.
func (s *Sketch) Merge(other *Sketch) error {
	if s.cfg != other.cfg {
		return fmt.Errorf("exaloglog: cannot merge config %+v with %+v; reduce to common parameters first", s.cfg, other.cfg)
	}
	s.mergeRegisters(other)
	return nil
}

// mergeRegisters is Merge for a sketch of s's configuration; it reports
// whether a register changed.
func (s *Sketch) mergeRegisters(other *Sketch) (changed bool) {
	s.martingale = false
	m := s.cfg.NumRegisters()
	for i := 0; i < m; i++ {
		r := s.regs.Get(i)
		rp := other.regs.Get(i)
		if merged := MergeRegister(r, rp, s.cfg.D); merged != r {
			s.regs.Set(i, merged)
			changed = true
		}
	}
	return changed
}

// IsEmpty reports whether no insertion has modified the sketch.
func (s *Sketch) IsEmpty() bool {
	m := s.cfg.NumRegisters()
	for i := 0; i < m; i++ {
		if s.regs.Get(i) != 0 {
			return false
		}
	}
	return true
}
