package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ q, want float64 }{
		{50, 50}, {51, 60}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {10.1, 20},
	} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples must not invent a value")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 100, 375, 999, 1000, 5000, 1_000_000} {
		q := tailPercentile(n)
		if q > 99 {
			t.Errorf("n=%d: p%v above p99", n, q)
		}
		beyond := float64(n) * (1 - q/100)
		if beyond < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves %.2f samples beyond it", n, q, beyond)
		}
	}
	if tailPercentile(1000) != 99 || tailPercentile(5) != 50 {
		t.Errorf("tailPercentile(1000)=%v tailPercentile(5)=%v", tailPercentile(1000), tailPercentile(5))
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10.5, 9.8, 10.1, 10.0, 10.2, 9.9, 10.3, 10.4, 9.7, 10.6}, 9.875, 10.425},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	v := []float64{90, 100, 110, 95, 105, 100, 100, 102, 98, 100}
	q1, q3 := quartiles(v)
	if want := (q3 - q1) / 100; math.Abs(spread(v)-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", spread(v), want)
	}
}

func TestSamplesCountAndMerge(t *testing.T) {
	var a, b samples
	for i := 1; i <= 100; i++ {
		a.add(float64(i))
	}
	for i := 101; i <= 1000; i++ {
		b.add(float64(i))
	}
	a.merge(&b)
	if a.n() != 1000 {
		t.Fatalf("n = %d", a.n())
	}
	if a.p50() != 500 || a.tail() != 990 {
		t.Errorf("p50 = %v, p99 = %v", a.p50(), a.tail())
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 || mean([]float64{1, 2, 3}) != 2 {
		t.Error("median/mean")
	}
}

func TestClientWorkRateIsCountOverMeasuredTime(t *testing.T) {
	// Two stretches. Client 0 completes 100 operations in 2 s and then 50
	// in 1 s; client 1 completes 30 in 1.5 s and 30 in 1.5 s.
	start := time.Unix(1_700_000_000, 0)
	var total clientWork
	for _, stretch := range [][clients]struct {
		n  int64
		at time.Duration
	}{{{100, 2 * time.Second}, {30, 1500 * time.Millisecond}}, {{50, time.Second}, {30, 1500 * time.Millisecond}}} {
		var seg clientWork
		for cl, c := range stretch {
			seg.done(cl, c.n-1, start, start.Add(c.at/2)) // an earlier answer does not end the stretch
			seg.done(cl, 1, start, start.Add(c.at))
		}
		total.add(seg)
	}
	if total.ops() != 210 {
		t.Errorf("ops = %d", total.ops())
	}
	if want := 150/3.0 + 60/3.0; math.Abs(total.rate()-want) > 1e-9 {
		t.Errorf("rate = %v, want %v", total.rate(), want)
	}
	var idle clientWork
	if idle.rate() != 0 {
		t.Errorf("nothing done: rate %v", idle.rate())
	}
}
