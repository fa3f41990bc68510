package core

import (
	"math"
	"testing"
	"testing/quick"

	"exaloglog/internal/hashing"
)

// TestTokenRoundTripInsertEquivalence is the key sparse-mode property
// (Section 4.3): for any sketch with p+t <= v, inserting the hash
// reconstructed from a token produces exactly the same state as inserting
// the original hash.
func TestTokenRoundTripInsertEquivalence(t *testing.T) {
	cfgs := []Config{
		{T: 2, D: 20, P: 8}, // p+t = 10
		{T: 1, D: 9, P: 9},  // p+t = 10
		{T: 0, D: 2, P: 10}, // p+t = 10
		{T: 2, D: 24, P: 4}, // p+t = 6
	}
	for _, v := range []int{10, 12, 18, 26} {
		for _, cfg := range cfgs {
			if cfg.P+cfg.T > v {
				continue
			}
			direct := MustNew(cfg)
			viaToken := MustNew(cfg)
			r := rng(int64(v) * 17)
			for i := 0; i < 3000; i++ {
				h := r.Uint64()
				direct.AddHash(h)
				viaToken.AddHash(HashFromToken(TokenFromHash(h, v), v))
			}
			if string(direct.RegisterBytes()) != string(viaToken.RegisterBytes()) {
				t.Errorf("v=%d cfg %+v: token round-trip changed the sketch state", v, cfg)
			}
		}
	}
}

// TestTokenReconstructionInvariants: the reconstructed hash preserves the
// low v bits and the NLZ of the upper 64-v bits — exactly the information
// the token encodes.
func TestTokenReconstructionInvariants(t *testing.T) {
	f := func(h uint64, vSeed uint8) bool {
		v := int(vSeed)%26 + 1
		w := TokenFromHash(h, v)
		hr := HashFromToken(w, v)
		mask := uint64(1)<<uint(v) - 1
		if hr&mask != h&mask {
			return false
		}
		nlzOrig := nlz(h | mask)
		nlzRec := nlz(hr | mask)
		return nlzOrig == nlzRec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTokenFixedPoint(t *testing.T) {
	// Token of a reconstructed hash is the same token.
	for _, v := range []int{1, 6, 10, 26, 58} {
		r := rng(int64(v))
		for i := 0; i < 500; i++ {
			w := TokenFromHash(r.Uint64(), v)
			if got := TokenFromHash(HashFromToken(w, v), v); got != w {
				t.Fatalf("v=%d: token %#x round-trips to %#x", v, w, got)
			}
		}
	}
}

func TestTokenSize(t *testing.T) {
	// Tokens fit in v+6 bits.
	for _, v := range []int{1, 8, 26} {
		r := rng(int64(v) + 100)
		limit := uint64(1) << uint(v+6)
		for i := 0; i < 1000; i++ {
			if w := TokenFromHash(r.Uint64(), v); w >= limit {
				t.Fatalf("v=%d: token %#x exceeds %d bits", v, w, v+6)
			}
		}
	}
}

func TestTokenSetBasics(t *testing.T) {
	ts, err := NewTokenSet(10)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 0 || ts.SizeBytes() != 0 {
		t.Error("fresh token set not empty")
	}
	r := rng(200)
	for i := 0; i < 1000; i++ {
		ts.AddHash(r.Uint64())
	}
	if ts.Len() == 0 || ts.Len() > 1000 {
		t.Errorf("token count %d implausible", ts.Len())
	}
	// 16-bit tokens → 2 bytes each.
	if got, want := ts.SizeBytes(), (ts.Len()*16+7)/8; got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	toks := ts.Tokens()
	for i := 1; i < len(toks); i++ {
		if toks[i-1] >= toks[i] {
			t.Fatal("Tokens() not strictly increasing")
		}
	}
	if _, err := NewTokenSet(0); err == nil {
		t.Error("NewTokenSet accepted v=0")
	}
	if _, err := NewTokenSet(60); err == nil {
		t.Error("NewTokenSet accepted v=60")
	}
}

// TestTokenSetToSketchEquivalence: converting collected tokens to a dense
// sketch gives exactly the state of direct insertion.
func TestTokenSetToSketchEquivalence(t *testing.T) {
	v := 12
	cfg := Config{T: 2, D: 20, P: 8}
	ts, err := NewTokenSet(v)
	if err != nil {
		t.Fatal(err)
	}
	direct := MustNew(cfg)
	r := rng(300)
	for i := 0; i < 5000; i++ {
		h := r.Uint64()
		ts.AddHash(h)
		direct.AddHash(h)
	}
	dense, err := ts.ToSketch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(dense.RegisterBytes()) != string(direct.RegisterBytes()) {
		t.Error("token-set dense conversion differs from direct insertion")
	}
	// p+t > v must be rejected.
	if _, err := ts.ToSketch(Config{T: 2, D: 20, P: 11}); err == nil {
		t.Error("ToSketch accepted p+t > v")
	}
}

func TestTokenSetMerge(t *testing.T) {
	a, _ := NewTokenSet(10)
	b, _ := NewTokenSet(10)
	r := rng(400)
	union := map[uint64]struct{}{}
	for i := 0; i < 500; i++ {
		h := r.Uint64()
		a.AddHash(h)
		union[TokenFromHash(h, 10)] = struct{}{}
	}
	for i := 0; i < 500; i++ {
		h := r.Uint64()
		b.AddHash(h)
		union[TokenFromHash(h, 10)] = struct{}{}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(union) {
		t.Errorf("merged token count %d, want %d", a.Len(), len(union))
	}
	c, _ := NewTokenSet(12)
	if err := a.Merge(c); err == nil {
		t.Error("merge accepted different v")
	}
}

// TestTokenMLEstimation verifies Figure 9's setup: estimating directly
// from token sets is nearly unbiased with small error. The paper reports
// error slightly smaller than an ELL sketch with p+t = v.
func TestTokenMLEstimation(t *testing.T) {
	for _, v := range []int{10, 12, 18} {
		for _, n := range []int{100, 1000, 10000} {
			ts, err := NewTokenSet(v)
			if err != nil {
				t.Fatal(err)
			}
			r := rng(int64(v*1000 + n))
			for i := 0; i < n; i++ {
				ts.AddHash(r.Uint64())
			}
			got := ts.EstimateML()
			// Tolerance ~5σ with σ ≈ sqrt(MVP_token/(2^v·tokenbits));
			// loose bound: 5 % at v=10/n=10k and wider for small n.
			tol := 0.12 * float64(n)
			if math.Abs(got-float64(n)) > tol+2 {
				t.Errorf("v=%d n=%d: token ML estimate %.1f", v, n, got)
			}
		}
	}
}

func TestTokenMLEmpty(t *testing.T) {
	ts, _ := NewTokenSet(10)
	if got := ts.EstimateML(); got != 0 {
		t.Errorf("empty token set estimate = %g, want 0", got)
	}
}

// TestTokenCoefficientsAlpha: α = 1 - Σ ρ_token over collected tokens;
// adding all 2^(v+6) possible tokens of a tiny v... instead verify against
// a direct computation of ρ_token (equation (24)).
func TestTokenCoefficientsAlpha(t *testing.T) {
	v := 8
	ts, _ := NewTokenSet(v)
	r := rng(500)
	for i := 0; i < 2000; i++ {
		ts.AddHash(r.Uint64())
	}
	c := ts.MLCoefficients()
	sum := 0.0
	for _, w := range ts.Tokens() {
		j := int(w&63) + v + 1
		if j > 64 {
			j = 64
		}
		sum += math.Exp2(-float64(j))
	}
	if math.Abs(c.Alpha-(1-sum)) > 1e-12 {
		t.Errorf("α = %.17g, want %.17g", c.Alpha, 1-sum)
	}
}

// TestTokenPMFSumsToOne verifies equation (25): Σ_w ρ_token(w) = 1 for
// small v by exhaustive enumeration.
func TestTokenPMFSumsToOne(t *testing.T) {
	for _, v := range []int{1, 2, 4, 6} {
		sum := 0.0
		for w := uint64(0); w < uint64(1)<<uint(v+6); w++ {
			s := int(w & 63)
			if s > 64-v {
				continue // ρ_token = 0
			}
			j := v + 1 + s
			if j > 64 {
				j = 64
			}
			sum += math.Exp2(-float64(j))
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("v=%d: Σρ_token = %.15f, want 1", v, sum)
		}
	}
}

func BenchmarkTokenSetInsert(b *testing.B) {
	ts, _ := NewTokenSet(DefaultTokenV)
	state := uint64(1)
	hashes := make([]uint64, 1<<16)
	for i := range hashes {
		hashes[i] = hashing.SplitMix64(&state)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.AddHash(hashes[i&(1<<16-1)])
	}
}
