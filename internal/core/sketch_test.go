package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"exaloglog/internal/bitpack"
)

// testConfigs covers the paper's recommended configurations plus the
// special cases HLL/EHLL/ULL and some odd widths.
var testConfigs = []Config{
	{T: 0, D: 0, P: 4},  // HLL
	{T: 0, D: 1, P: 4},  // EHLL
	{T: 0, D: 2, P: 6},  // ULL
	{T: 1, D: 9, P: 5},  // ELL(1,9), 16-bit registers
	{T: 2, D: 16, P: 6}, // ELL(2,16), 24-bit registers
	{T: 2, D: 20, P: 4}, // ELL(2,20), 28-bit registers
	{T: 2, D: 24, P: 6}, // ELL(2,24), 32-bit registers
	{T: 2, D: 6, P: 2},  // Figure 3's example, 14-bit registers
	{T: 3, D: 5, P: 8},  // larger t
}

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestConfigValidate(t *testing.T) {
	for _, cfg := range testConfigs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %+v should be valid: %v", cfg, err)
		}
	}
	invalid := []Config{
		{T: -1, D: 0, P: 4},
		{T: 7, D: 0, P: 4},
		{T: 0, D: -1, P: 4},
		{T: 0, D: 52, P: 4}, // width 58 > 57
		{T: 0, D: 0, P: 1},
		{T: 0, D: 0, P: 27},
	}
	for _, cfg := range invalid {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
}

func TestConfigDerivedValues(t *testing.T) {
	// Figure 3's example: p=2, t=2, d=6 → 4 registers of 14 bits.
	cfg := Config{T: 2, D: 6, P: 2}
	if got := cfg.NumRegisters(); got != 4 {
		t.Errorf("NumRegisters = %d, want 4", got)
	}
	if got := cfg.RegisterWidth(); got != 14 {
		t.Errorf("RegisterWidth = %d, want 14", got)
	}
	// Max update value (65-p-t)·2^t = 61·4 = 244.
	if got := cfg.MaxUpdateValue(); got != 244 {
		t.Errorf("MaxUpdateValue = %d, want 244", got)
	}
	// Table 2 sizes: ELL(2,20,p=8) = 896 bytes, ELL(2,24,p=8) = 1024.
	if got := (Config{T: 2, D: 20, P: 8}).SizeBytes(); got != 896 {
		t.Errorf("ELL(2,20,8) SizeBytes = %d, want 896", got)
	}
	if got := (Config{T: 2, D: 24, P: 8}).SizeBytes(); got != 1024 {
		t.Errorf("ELL(2,24,8) SizeBytes = %d, want 1024", got)
	}
}

func TestPhi(t *testing.T) {
	// φ(k) = min(t+1+⌊(k-1)/2^t⌋, 64-p), equation (11).
	cfg := Config{T: 2, D: 20, P: 8}
	cases := []struct {
		k    int64
		want int
	}{
		{0, 2}, // φ(0) = t (floor of -1/4 is -1)
		{1, 3}, // t+1
		{4, 3}, // still first chunk
		{5, 4}, // second chunk
		{8, 4},
		{9, 5},
		{220, 56}, // t+1+54 = 57 > 56 → capped at 64-p = 56
		{244, 56}, // max update value, capped
	}
	for _, c := range cases {
		if got := cfg.phi(c.k); got != c.want {
			t.Errorf("phi(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

// TestOmegaLemmaB1 verifies Lemma B.1: ω(u) = Σ_{k=u+1}^{kmax} ρ_update(k)
// computed by the closed form matches the direct sum, for every u.
func TestOmegaLemmaB1(t *testing.T) {
	for _, cfg := range []Config{{T: 0, D: 2, P: 10}, {T: 1, D: 9, P: 6}, {T: 2, D: 20, P: 4}, {T: 3, D: 5, P: 12}} {
		kmax := int64(cfg.MaxUpdateValue())
		// Direct suffix sums of ρ_update(k) = 2^-φ(k), accumulated as
		// exact multiples of 2^-(64-p) in a uint64 (top value is 2^62 max).
		suffix := uint64(0)
		scale := uint(64 - cfg.P)
		for u := kmax; u >= 0; u-- {
			if u < kmax {
				suffix += uint64(1) << (scale - uint(cfg.phi(u+1)))
			}
			closed := uint64(cfg.omegaNumerator(u)) << (scale - uint(cfg.phi(u)))
			if closed != suffix {
				t.Fatalf("cfg %+v: ω(%d): closed form %d, direct sum %d", cfg, u, closed, suffix)
			}
		}
		// ω(0) must be exactly 1 (total probability).
		if got := uint64(cfg.omegaNumerator(0)) << (scale - uint(cfg.phi(0))); got != uint64(1)<<scale {
			t.Errorf("cfg %+v: ω(0) scaled = %d, want 2^%d", cfg, got, scale)
		}
	}
}

func TestUpdateValueRange(t *testing.T) {
	for _, cfg := range testConfigs {
		// Extremes: a hash whose only set bits are the low t bits yields
		// the max update value (saturated NLZ, maximal low-bit part);
		// all-ones gives k = 2^t (nlz 0, t bits all 1).
		if got := cfg.updateValue(uint64(1)<<uint(cfg.T) - 1); got != cfg.MaxUpdateValue() {
			t.Errorf("cfg %+v: updateValue(2^t-1) = %d, want %d", cfg, got, cfg.MaxUpdateValue())
		}
		if got, want := cfg.updateValue(0), uint64(64-cfg.P-cfg.T)<<uint(cfg.T)+1; got != want {
			t.Errorf("cfg %+v: updateValue(0) = %d, want %d", cfg, got, want)
		}
		if got := cfg.updateValue(^uint64(0)); got != uint64(1)<<uint(cfg.T) {
			t.Errorf("cfg %+v: updateValue(all ones) = %d, want %d", cfg, got, 1<<uint(cfg.T))
		}
		r := rng(1)
		for n := 0; n < 2000; n++ {
			h := r.Uint64()
			k := cfg.updateValue(h)
			if k < 1 || k > cfg.MaxUpdateValue() {
				t.Fatalf("cfg %+v: update value %d out of [1, %d]", cfg, k, cfg.MaxUpdateValue())
			}
			// The register max field must be able to hold k: k < 2^(6+t).
			if k >= uint64(1)<<uint(6+cfg.T) {
				t.Fatalf("cfg %+v: update value %d does not fit in %d bits", cfg, k, 6+cfg.T)
			}
		}
	}
}

func TestAddIdempotent(t *testing.T) {
	for _, cfg := range testConfigs {
		s := MustNew(cfg)
		r := rng(2)
		hashes := make([]uint64, 300)
		for i := range hashes {
			hashes[i] = r.Uint64()
		}
		for _, h := range hashes {
			s.AddHash(h)
		}
		snapshot := s.RegisterBytes()
		// Re-inserting every element (several times, shuffled) must not
		// change the state.
		for round := 0; round < 3; round++ {
			r.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
			for _, h := range hashes {
				s.AddHash(h)
			}
		}
		if string(snapshot) != string(s.RegisterBytes()) {
			t.Errorf("cfg %+v: duplicate insertions changed the state", cfg)
		}
	}
}

func TestAddCommutative(t *testing.T) {
	for _, cfg := range testConfigs {
		r := rng(3)
		hashes := make([]uint64, 500)
		for i := range hashes {
			hashes[i] = r.Uint64()
		}
		a := MustNew(cfg)
		for _, h := range hashes {
			a.AddHash(h)
		}
		b := MustNew(cfg)
		r.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
		for _, h := range hashes {
			b.AddHash(h)
		}
		if string(a.RegisterBytes()) != string(b.RegisterBytes()) {
			t.Errorf("cfg %+v: insertion order changed the state", cfg)
		}
	}
}

// TestMergeEqualsUnifiedStream reproduces the paper's own merge test
// (Section 5): for many pairs of random sketches, merging must give
// exactly the state obtained by inserting the unified element stream into
// one sketch.
func TestMergeEqualsUnifiedStream(t *testing.T) {
	for _, cfg := range testConfigs {
		r := rng(4)
		for trial := 0; trial < 20; trial++ {
			na, nb := r.Intn(400), r.Intn(400)
			a, b, u := MustNew(cfg), MustNew(cfg), MustNew(cfg)
			for i := 0; i < na; i++ {
				h := r.Uint64()
				a.AddHash(h)
				u.AddHash(h)
			}
			for i := 0; i < nb; i++ {
				h := r.Uint64()
				b.AddHash(h)
				u.AddHash(h)
			}
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			if string(a.RegisterBytes()) != string(u.RegisterBytes()) {
				t.Fatalf("cfg %+v trial %d: merged state differs from unified-stream state", cfg, trial)
			}
		}
	}
}

func TestMergeCommutativeAssociative(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 4}
	r := rng(5)
	mk := func(n int) *Sketch {
		s := MustNew(cfg)
		for i := 0; i < n; i++ {
			s.AddHash(r.Uint64())
		}
		return s
	}
	a, b, c := mk(100), mk(200), mk(50)

	ab := a.Clone()
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	ba := b.Clone()
	if err := ba.Merge(a); err != nil {
		t.Fatal(err)
	}
	if string(ab.RegisterBytes()) != string(ba.RegisterBytes()) {
		t.Error("merge not commutative")
	}

	abc1 := ab.Clone()
	if err := abc1.Merge(c); err != nil {
		t.Fatal(err)
	}
	bc := b.Clone()
	if err := bc.Merge(c); err != nil {
		t.Fatal(err)
	}
	abc2 := a.Clone()
	if err := abc2.Merge(bc); err != nil {
		t.Fatal(err)
	}
	if string(abc1.RegisterBytes()) != string(abc2.RegisterBytes()) {
		t.Error("merge not associative")
	}
}

func TestMergeRejectsMismatchedConfig(t *testing.T) {
	a := MustNew(Config{T: 2, D: 20, P: 4})
	b := MustNew(Config{T: 2, D: 20, P: 5})
	if err := a.Merge(b); err == nil {
		t.Error("merge accepted different p")
	}
	c := MustNew(Config{T: 1, D: 20, P: 4})
	if err := a.Merge(c); err == nil {
		t.Error("merge accepted different t")
	}
}

func TestMergeIdempotent(t *testing.T) {
	// Merging a sketch with itself must not change it.
	for _, cfg := range testConfigs {
		s := MustNew(cfg)
		r := rng(6)
		for i := 0; i < 300; i++ {
			s.AddHash(r.Uint64())
		}
		before := s.RegisterBytes()
		if err := s.Merge(s.Clone()); err != nil {
			t.Fatal(err)
		}
		if string(before) != string(s.RegisterBytes()) {
			t.Errorf("cfg %+v: self-merge changed the state", cfg)
		}
	}
}

func TestMergeRegisterProperties(t *testing.T) {
	// Property check with random register states built through real
	// update sequences: merge of register values is commutative,
	// associative, idempotent, and monotone (result >= both inputs in the
	// register partial order of "max update value then indicators").
	d := 6
	build := func(seed int64, n int) uint64 {
		r := rng(seed)
		reg := uint64(0)
		for i := 0; i < n; i++ {
			k := uint64(r.Intn(40) + 1)
			reg = updateRegister(reg, k, d)
		}
		return reg
	}
	f := func(sa, sb int64) bool {
		a := build(sa, int(sa%7)+1)
		b := build(sb, int(sb%11)+1)
		ab := MergeRegister(a, b, d)
		ba := MergeRegister(b, a, d)
		if ab != ba {
			return false
		}
		if MergeRegister(a, a, d) != a {
			return false
		}
		// Merged max is the max of the individual maxima.
		if ab>>uint(d) != max64(a>>uint(d), b>>uint(d)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestCloneAndReset(t *testing.T) {
	s := MustNew(Config{T: 2, D: 20, P: 4})
	r := rng(8)
	for i := 0; i < 100; i++ {
		s.AddHash(r.Uint64())
	}
	c := s.Clone()
	if string(c.RegisterBytes()) != string(s.RegisterBytes()) {
		t.Fatal("clone state differs")
	}
	c.AddHash(r.Uint64())
	s.Reset()
	if !s.IsEmpty() {
		t.Error("Reset did not empty the sketch")
	}
	if c.IsEmpty() {
		t.Error("clone was affected by Reset")
	}
}

func TestAddConvenienceMethods(t *testing.T) {
	s1 := MustNew(Config{T: 2, D: 20, P: 6})
	s2 := MustNew(Config{T: 2, D: 20, P: 6})
	s1.Add([]byte("hello"))
	s2.AddString("hello")
	if string(s1.RegisterBytes()) != string(s2.RegisterBytes()) {
		t.Error("Add([]byte) and AddString disagree")
	}
	s3 := MustNew(Config{T: 2, D: 20, P: 6})
	s3.AddUint64(12345)
	if s3.IsEmpty() {
		t.Error("AddUint64 did not modify the sketch")
	}
}

// TestFigure3Example replays the two insertions of Figure 3 (p=2, t=2,
// d=6) and checks the register fields are structurally consistent.
func TestFigure3Example(t *testing.T) {
	cfg := Config{T: 2, D: 6, P: 2}
	s := MustNew(cfg)

	// First insertion: a hash with nlz(a)=3 in the first 60 bits,
	// register index 1, low t bits 10₂ = 2 → k = 3·4+2+1 = 15.
	// Construct: h = 0001...(56 bits)...[idx=01][t bits=10].
	h1 := uint64(0x1)<<60 | uint64(1)<<2 | 2
	s.AddHash(h1)
	if got := s.Register(1) >> 6; got != 15 {
		t.Fatalf("after first insert: u = %d, want 15", got)
	}

	// Second insertion into the same register with a smaller value
	// k = 12 (nlz 2, low bits 11₂ = 3): k = 2·4+3+1 = 12, Δ = -3 →
	// indicator bit d+Δ = 3 is set.
	h2 := uint64(1)<<61 | uint64(1)<<2 | 3
	if got := cfg.updateValue(h2); got != 12 {
		t.Fatalf("constructed hash has update value %d, want 12", got)
	}
	if got := cfg.registerIndex(h2); got != 1 {
		t.Fatalf("constructed hash has register index %d, want 1", got)
	}
	s.AddHash(h2)
	reg := s.Register(1)
	if reg>>6 != 15 {
		t.Errorf("max update value changed: %d", reg>>6)
	}
	if reg&(1<<3) == 0 {
		t.Errorf("indicator bit for k=12 (position 3) not set; register = %b", reg)
	}
}

func TestMemoryFootprintOrdering(t *testing.T) {
	small := MustNew(Config{T: 2, D: 20, P: 4})
	large := MustNew(Config{T: 2, D: 20, P: 10})
	if small.MemoryFootprint() >= large.MemoryFootprint() {
		t.Error("memory footprint not increasing with p")
	}
	if small.SizeBytes() != 256*28/8/16 {
		t.Errorf("p=4 size = %d, want %d", small.SizeBytes(), 16*28/8)
	}
}

// TestAddHashMatchesGetSetPath: AddHash's one-load, one-store register
// update leaves the same register bytes as reading the register with Get,
// applying updateRegister and writing it back with Set, on a random stream
// — for arrays under eight bytes (p = 2 at width 6), widths 6, 28 and 57,
// and small and large p.
func TestAddHashMatchesGetSetPath(t *testing.T) {
	for _, cfg := range []Config{
		{T: 0, D: 0, P: 2}, {T: 0, D: 0, P: 10},
		{T: 2, D: 20, P: 2}, {T: 2, D: 20, P: 4}, {T: 2, D: 20, P: 12},
		{T: 3, D: 48, P: 3}, {T: 2, D: 49, P: 9},
	} {
		s := MustNew(cfg)
		ref := bitpack.New(cfg.NumRegisters(), cfg.RegisterWidth())
		r := rng(int64(cfg.P))
		for range 20 * cfg.NumRegisters() {
			h := r.Uint64()
			s.AddHash(h)
			i := cfg.registerIndex(h)
			ref.Set(i, updateRegister(ref.Get(i), cfg.updateValue(h), cfg.D))
		}
		if !bytes.Equal(s.regs.Bytes(), ref.Bytes()) {
			t.Errorf("cfg %+v: AddHash registers differ from the Get/Set path", cfg)
		}
	}
}
