package spike

import (
	"math"
	"math/rand"
	"testing"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestNewValidation(t *testing.T) {
	if _, err := New(100); err == nil {
		t.Error("accepted non-power-of-two bucket count")
	}
	if _, err := New(2); err == nil {
		t.Error("accepted too few buckets")
	}
	s, err := New(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.buckets) != 128 || s.SizeBytes() != 1024 {
		t.Errorf("buckets=%d size=%d, want 128 and 1024 (Table 2 row)", len(s.buckets), s.SizeBytes())
	}
	if s.NumCells() != 2048 {
		t.Errorf("cells=%d, want 2048 (16 per bucket)", s.NumCells())
	}
}

func TestCellPacking(t *testing.T) {
	s, _ := New(4)
	for i := 0; i < s.NumCells(); i++ {
		s.setCell(i, i%16)
	}
	for i := 0; i < s.NumCells(); i++ {
		if got := s.cell(i); got != i%16 {
			t.Fatalf("cell %d = %d, want %d", i, got, i%16)
		}
	}
}

func TestOffsetAdvances(t *testing.T) {
	// With n >> cells, every cell fills and the stepwise offset must
	// advance; estimates stay consistent across the advance.
	s, _ := New(4) // 64 cells
	r := rng(77)
	for i := 0; i < 200000; i++ {
		s.AddHash(r.Uint64())
	}
	if s.offset == 0 {
		t.Error("offset never advanced at n >> cells")
	}
	est := s.Estimate()
	if est < 100000 || est > 400000 {
		t.Errorf("estimate %.0f implausible for n=200000", est)
	}
}

func TestUpdateValueDistribution(t *testing.T) {
	// k must follow P(k) = (3/4)·4^-(k-1) (geometric with success 3/4,
	// the distribution SpikeSketch is built on).
	s, _ := New(128)
	r := rng(1)
	const samples = 1 << 18
	counts := map[int]int{}
	for i := 0; i < samples; i++ {
		counts[s.updateValue(r.Uint64())]++
	}
	for k := 1; k <= 5; k++ {
		want := float64(samples) * 0.75 * math.Pow(0.25, float64(k-1))
		got := float64(counts[k])
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("k=%d: got %.0f, want ≈%.0f", k, got, want)
		}
	}
}

func TestSmoothingDropsAboutOneThird(t *testing.T) {
	// The emulated stepwise smoothing must make an empty sketch ignore
	// ≈ 36 % of single-element insertions — the artifact the ExaLogLog
	// paper criticizes (Section 5.2).
	r := rng(2)
	const trials = 20000
	dropped := 0
	for i := 0; i < trials; i++ {
		s, _ := New(128)
		s.AddHash(r.Uint64())
		empty := true
		for _, b := range s.buckets {
			if b != 0 {
				empty = false
				break
			}
		}
		if empty {
			dropped++
		}
	}
	frac := float64(dropped) / trials
	if frac < 0.30 || frac > 0.42 {
		t.Errorf("empty-sketch drop fraction = %.3f, want ≈ 0.36", frac)
	}
}

func TestIdempotentCommutative(t *testing.T) {
	r := rng(3)
	hashes := make([]uint64, 2000)
	for i := range hashes {
		hashes[i] = r.Uint64()
	}
	a, _ := New(64)
	for _, h := range hashes {
		a.AddHash(h)
		a.AddHash(h)
	}
	b, _ := New(64)
	r.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
	for _, h := range hashes {
		b.AddHash(h)
	}
	for i := range a.buckets {
		if a.buckets[i] != b.buckets[i] {
			t.Fatalf("bucket %d differs after shuffle+duplicates", i)
		}
	}
}

func TestMergeEqualsUnifiedStream(t *testing.T) {
	r := rng(4)
	a, _ := New(128)
	b, _ := New(128)
	u, _ := New(128)
	for i := 0; i < 3000; i++ {
		h := r.Uint64()
		a.AddHash(h)
		u.AddHash(h)
	}
	for i := 0; i < 4000; i++ {
		h := r.Uint64()
		b.AddHash(h)
		u.AddHash(h)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := range a.buckets {
		if a.buckets[i] != u.buckets[i] {
			t.Fatalf("bucket %d: merged %#x, unified %#x", i, a.buckets[i], u.buckets[i])
		}
	}
	c, _ := New(64)
	if err := a.Merge(c); err == nil {
		t.Error("merge accepted different bucket count")
	}
}

func TestEstimateMidRangeAccuracy(t *testing.T) {
	// At n >> 10^4 the smoothing artifact washes out; the paper measures
	// ≈ 2.26 % RMSE at n = 10^6 with 128 buckets. A single run should be
	// well within 5σ ≈ 11 %.
	for _, n := range []int{100000, 1000000} {
		s, _ := New(128)
		r := rng(int64(n))
		for i := 0; i < n; i++ {
			s.AddHash(r.Uint64())
		}
		got := s.Estimate()
		if relErr := math.Abs(got-float64(n)) / float64(n); relErr > 0.12 {
			t.Errorf("n=%d: estimate %.0f (rel err %.3f)", n, got, relErr)
		}
	}
}

func TestEstimateSmallRangeInflatedError(t *testing.T) {
	// Reproduce the paper's criticism quantitatively: across many runs at
	// n = 1, the estimate is 0 (100 % error) roughly 36 % of the time.
	r := rng(8)
	zeros := 0
	const runs = 5000
	for i := 0; i < runs; i++ {
		s, _ := New(128)
		s.AddHash(r.Uint64())
		if s.Estimate() == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / runs
	if frac < 0.28 || frac > 0.44 {
		t.Errorf("P(estimate=0 | n=1) = %.3f, want ≈ 0.36", frac)
	}
}

func TestEstimateEmpty(t *testing.T) {
	s, _ := New(128)
	if got := s.Estimate(); got != 0 {
		t.Errorf("empty estimate = %g, want 0", got)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	s, _ := New(128)
	r := rng(9)
	for i := 0; i < 10000; i++ {
		s.AddHash(r.Uint64())
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Sketch
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := range s.buckets {
		if restored.buckets[i] != s.buckets[i] {
			t.Fatalf("bucket %d lost in round trip", i)
		}
	}
	if restored.Estimate() != s.Estimate() {
		t.Error("estimate changed after round trip")
	}
	if err := new(Sketch).UnmarshalBinary([]byte{7, 0}); err == nil {
		t.Error("accepted malformed payload")
	}
}
