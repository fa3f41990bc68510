package workload

import (
	"math"
	"testing"
)

func TestUniformNeverRepeats(t *testing.T) {
	u := NewUniform(1)
	seen := make(map[uint64]struct{}, 100000)
	for i := 0; i < 100000; i++ {
		h := u.NextHash()
		if _, dup := seen[h]; dup {
			t.Fatalf("uniform stream repeated at event %d", i)
		}
		seen[h] = struct{}{}
	}
}

func TestUniformDeterministic(t *testing.T) {
	a, b := NewUniform(7), NewUniform(7)
	for i := 0; i < 1000; i++ {
		if a.NextHash() != b.NextHash() {
			t.Fatal("uniform stream not deterministic")
		}
	}
	c := NewUniform(8)
	if NewUniform(7).NextHash() == c.NextHash() {
		t.Error("different seeds give identical streams")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(3, 10000, 1.2)
	counts := make(map[uint64]int)
	const events = 200000
	for i := 0; i < events; i++ {
		counts[z.NextHash()]++
	}
	// The most popular element should dominate: for s=1.2 over 10k
	// elements, rank 1 has probability ≈ 1/ζ(1.2-ish) ≈ 15-20 %.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if frac := float64(max) / events; frac < 0.05 {
		t.Errorf("top element frequency %.3f, expected heavy skew", frac)
	}
	// Far fewer distinct elements than events.
	if len(counts) >= events/2 {
		t.Errorf("zipf stream produced %d distinct of %d events", len(counts), events)
	}
	if len(z.cdf) != 10000 {
		t.Errorf("Universe = %d", len(z.cdf))
	}
}

func TestZipfCoversUniverse(t *testing.T) {
	// With s close to 0 the distribution is near-uniform: most of a small
	// universe should appear.
	z := NewZipf(5, 100, 0.01)
	seen := make(map[uint64]struct{})
	for i := 0; i < 10000; i++ {
		seen[z.NextHash()] = struct{}{}
	}
	if len(seen) < 95 {
		t.Errorf("near-uniform zipf covered only %d/100 elements", len(seen))
	}
}

func TestBursty(t *testing.T) {
	b := NewBursty(NewUniform(2), 5)
	var prev uint64
	distinct := 0
	for i := 0; i < 100; i++ {
		h := b.NextHash()
		if i%5 == 0 {
			if h == prev {
				t.Fatal("burst boundary repeated the previous element")
			}
			distinct++
		} else if h != prev {
			t.Fatalf("event %d broke its burst", i)
		}
		prev = h
	}
	if distinct != 20 {
		t.Errorf("distinct bursts = %d, want 20", distinct)
	}
	// Degenerate burst length.
	if NewBursty(NewUniform(3), 0).burstLen != 1 {
		t.Error("burstLen floor not applied")
	}
}

func TestDistinctCounter(t *testing.T) {
	d := NewDistinctCounter()
	if d.Observe(1) != 1 || d.Observe(1) != 1 || d.Observe(2) != 2 {
		t.Error("DistinctCounter miscounts")
	}
	if d.Count() != 2 {
		t.Errorf("Count = %d", d.Count())
	}
}

func TestZipfCDFMonotone(t *testing.T) {
	z := NewZipf(1, 1000, 1.0)
	for i := 1; i < len(z.cdf); i++ {
		if z.cdf[i] < z.cdf[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if math.Abs(z.cdf[len(z.cdf)-1]-1) > 1e-12 {
		t.Errorf("CDF does not end at 1: %v", z.cdf[len(z.cdf)-1])
	}
}
