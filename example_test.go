package exaloglog_test

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"

	"exaloglog"
)

// Goroutines insert into one sketch without a lock: the 32-bit ELL(2,24)
// registers are updated by compare-and-swap (Section 2.4 of the paper).
// Whatever the interleaving, the result is the state a single goroutine
// inserting the same elements would reach.
func ExampleNewAtomic() {
	const workers, eventsPerWorker, distinctUsers = 4, 20000, 15000
	sketch := exaloglog.NewAtomic(12)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The workers' slices of the user space overlap: duplicates
			// across workers never change the state.
			for e := 0; e < eventsPerWorker; e++ {
				sketch.AddString("user-" + strconv.Itoa((e*7+w*13)%distinctUsers))
			}
		}(w)
	}
	wg.Wait()

	// A snapshot is an ordinary sketch: mergeable and serializable.
	snap := sketch.Snapshot()
	sequential, _ := exaloglog.NewWithConfig(snap.Config())
	for u := 0; u < distinctUsers; u++ {
		sequential.AddString("user-" + strconv.Itoa(u))
	}
	a, _ := snap.MarshalBinary()
	b, _ := sequential.MarshalBinary()

	fmt.Printf("%d goroutines, %d events: ≈ %.0f distinct users\n",
		workers, workers*eventsPerWorker, snap.Estimate())
	fmt.Println("same state as one goroutine:", bytes.Equal(a, b))
	// Output:
	// 4 goroutines, 80000 events: ≈ 15013 distinct users
	// same state as one goroutine: true
}

// A fleet moves from p=12, d=20 to the smaller p=8, d=16 (Section 4.2 of
// the paper). Reducing an old sketch gives exactly the state that recording
// at the new parameters would have produced, so merges across the
// migration stay lossless.
func ExampleMergeCompatible() {
	fill := func(s *exaloglog.Sketch, from, to int) {
		for u := from; u < to; u++ {
			s.AddUint64(uint64(u))
		}
	}
	oldCfg := exaloglog.Config{T: 2, D: 20, P: 12}
	newCfg := exaloglog.Config{T: 2, D: 16, P: 8}

	day1, _ := exaloglog.NewWithConfig(oldCfg)
	day2, _ := exaloglog.NewWithConfig(oldCfg)
	day3, _ := exaloglog.NewWithConfig(newCfg)
	fill(day1, 0, 40000)
	fill(day2, 30000, 80000) // overlaps day 1
	fill(day3, 70000, 120000)
	fmt.Printf("old: %d bytes, new: %d bytes\n", day1.SizeBytes(), day3.SizeBytes())

	week, err := exaloglog.MergeCompatible(day1, day2)
	if err != nil {
		panic(err)
	}
	if week, err = exaloglog.MergeCompatible(week, day3); err != nil {
		panic(err)
	}

	direct, _ := exaloglog.NewWithConfig(newCfg)
	fill(direct, 0, 120000)
	a, _ := week.MarshalBinary()
	b, _ := direct.MarshalBinary()
	fmt.Printf("week: ≈ %.0f distinct users (true 120000)\n", week.Estimate())
	fmt.Println("reduced and merged == recorded at p=8, d=16:", bytes.Equal(a, b))
	// Output:
	// old: 14336 bytes, new: 768 bytes
	// week: ≈ 122625 distinct users (true 120000)
	// reduced and merged == recorded at p=8, d=16: true
}

// A per-customer distinct-URL counter (Section 4.3 of the paper): most
// customers touch a handful of URLs and stay sparse, holding only their
// hash tokens; a large one crosses the break-even point and converts,
// losslessly, to the dense register array.
func ExampleNewHybrid() {
	cfg := exaloglog.Config{T: 2, D: 20, P: 10}
	for _, c := range []struct {
		name string
		urls int
	}{{"small-shop", 12}, {"mid-size", 4200}, {"whale", 300000}} {
		h, err := exaloglog.NewHybrid(cfg)
		if err != nil {
			panic(err)
		}
		for u := 0; u < c.urls; u++ {
			h.AddString(c.name + "/url/" + strconv.Itoa(u))
		}
		mode := "dense"
		if h.IsSparse() {
			mode = "sparse"
		}
		fmt.Printf("%s: %s, %d bytes, ≈ %.0f distinct (true %d)\n",
			c.name, mode, h.SizeBytes(), h.Estimate(), c.urls)
	}
	// Output:
	// small-shop: sparse, 20 bytes, ≈ 12 distinct (true 12)
	// mid-size: sparse, 1915 bytes, ≈ 4196 distinct (true 4200)
	// whale: dense, 3584 bytes, ≈ 298209 distinct (true 300000)
}

// The paper's sparse mode as it states it (Section 4.3, Algorithm 7): a
// 32-bit token (v = 26) keeps all an ELL sketch with p+t ≤ 26 needs of a
// 64-bit hash. A collector keeps only tokens and estimates from them; a
// sketch of any such configuration built later from a token's
// representative hash holds the registers the original hash would have set.
func ExampleNewTokenSet() {
	const v = 26
	ts, err := exaloglog.NewTokenSet(v)
	if err != nil {
		panic(err)
	}
	cfg := exaloglog.Config{T: 2, D: 20, P: 12}
	direct, _ := exaloglog.NewWithConfig(cfg)
	viaToken, _ := exaloglog.NewWithConfig(cfg)
	state := uint64(0)
	for i := 0; i < 1000; i++ {
		state += 0x9e3779b97f4a7c15 // SplitMix64: a well-mixed 64-bit hash per element
		h := (state ^ state>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
		ts.AddHash(h)
		direct.AddHash(h)
		viaToken.AddHash(exaloglog.HashFromToken(exaloglog.TokenFromHash(h, v), v))
	}
	dense, err := ts.ToSketch(cfg)
	if err != nil {
		panic(err)
	}
	a, _ := direct.MarshalBinary()
	b, _ := viaToken.MarshalBinary()
	c, _ := dense.MarshalBinary()
	fmt.Printf("%d tokens in %d bytes (the dense sketch: %d), ≈ %.0f distinct\n", ts.Len(), ts.SizeBytes(), len(a), ts.EstimateML())
	fmt.Println("a token's hash sets the same registers:", bytes.Equal(a, b))
	fmt.Println("the token set converts to the same sketch:", bytes.Equal(a, c))
	// Output:
	// 1000 tokens in 4000 bytes (the dense sketch: 14344), ≈ 1000 distinct
	// a token's hash sets the same registers: true
	// the token set converts to the same sketch: true
}

// For one stream that is never merged, the martingale (HIP) estimator on
// ELL(2,16) reaches the accuracy of the mergeable ML configuration with
// less memory (Section 3.3, Figure 5 of the paper). Re-seeing a flow never
// changes either sketch, and each new flow costs O(1).
func ExampleNewMartingale() {
	mart := exaloglog.NewMartingale(10)
	ml := exaloglog.New(10)
	fmt.Printf("martingale: %d bytes, ML: %d bytes\n", mart.SizeBytes(), ml.SizeBytes())

	flows := 0
	for _, burst := range []struct{ newFlows, repeats int }{
		{1000, 50}, {9000, 20}, {40000, 5}, {150000, 2},
	} {
		for f := flows; f < flows+burst.newFlows; f++ {
			for r := 0; r <= burst.repeats; r++ {
				mart.AddUint64(uint64(f))
				ml.AddUint64(uint64(f))
			}
		}
		flows += burst.newFlows
		fmt.Printf("%d flows: martingale ≈ %.0f, ML ≈ %.0f\n", flows, mart.Estimate(), ml.Estimate())
	}
	fmt.Printf("state-change probability: %.6f\n", mart.StateChangeProbability())
	// Output:
	// martingale: 3072 bytes, ML: 3584 bytes
	// 1000 flows: martingale ≈ 995, ML ≈ 994
	// 10000 flows: martingale ≈ 9959, ML ≈ 10002
	// 50000 flows: martingale ≈ 49874, ML ≈ 49674
	// 200000 flows: martingale ≈ 200869, ML ≈ 200304
	// state-change probability: 0.022243
}
