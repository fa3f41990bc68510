package compare

import (
	"math"
	"time"

	"exaloglog/internal/hashing"
)

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	Name               string
	RMSE               float64
	MemoryBytes        float64 // average in-memory footprint
	SerializedBytes    float64 // average serialized size
	MVPMemory          float64 // memory bits × RMSE²
	MVPSerialized      float64 // serialized bits × RMSE²
	ConstantTimeInsert bool
}

// Table2 reproduces Table 2: each algorithm sees `runs` independent
// streams of n distinct elements; the RMSE, average memory and
// serialization sizes, and the resulting empirical MVPs are reported.
func Table2(algos []Algorithm, n int, runs int, seed uint64) []Table2Row {
	rows := make([]Table2Row, 0, len(algos))
	for ai, a := range algos {
		var sumSq, memSum, serSum float64
		for run := 0; run < runs; run++ {
			c := a.New()
			state := seed + uint64(ai)*1e9 + uint64(run)*31
			for i := 0; i < n; i++ {
				c.AddHash(hashing.SplitMix64(&state))
			}
			rel := c.Estimate()/float64(n) - 1
			sumSq += rel * rel
			memSum += float64(c.MemoryFootprint())
			serSum += float64(len(a.Serialize(c)))
		}
		rmse := math.Sqrt(sumSq / float64(runs))
		mem := memSum / float64(runs)
		ser := serSum / float64(runs)
		rows = append(rows, Table2Row{
			Name:               a.Name,
			RMSE:               rmse,
			MemoryBytes:        mem,
			SerializedBytes:    ser,
			MVPMemory:          mem * 8 * rmse * rmse,
			MVPSerialized:      ser * 8 * rmse * rmse,
			ConstantTimeInsert: a.ConstantTimeInsert,
		})
	}
	return rows
}

// Figure10Point is one (algorithm, n) cell of Figure 10.
type Figure10Point struct {
	Name        string
	N           int
	MemoryBytes float64
	MVP         float64
}

// Figure10Ns returns the distinct counts of Figure 10:
// 10, 20, 50, 100, ..., 10^6.
func Figure10Ns() []int {
	var out []int
	for base := 10; base <= 100000; base *= 10 {
		for _, f := range []int{1, 2, 5} {
			out = append(out, base*f)
		}
	}
	return append(out, 1000000)
}

// Figure10 measures the average memory footprint and empirical MVP over
// the distinct-count range of Figure 10. To keep one pass per run, each
// run inserts up to max(ns) elements and snapshots at each n.
func Figure10(algos []Algorithm, ns []int, runs int, seed uint64) []Figure10Point {
	maxN := ns[len(ns)-1]
	points := make([]Figure10Point, 0, len(algos)*len(ns))
	for ai, a := range algos {
		sumSq := make([]float64, len(ns))
		memSum := make([]float64, len(ns))
		for run := 0; run < runs; run++ {
			c := a.New()
			state := seed + uint64(ai)*1e9 + uint64(run)*37
			next := 0
			for i := 1; i <= maxN; i++ {
				c.AddHash(hashing.SplitMix64(&state))
				if next < len(ns) && i == ns[next] {
					rel := c.Estimate()/float64(i) - 1
					sumSq[next] += rel * rel
					memSum[next] += float64(c.MemoryFootprint())
					next++
				}
			}
		}
		for j, n := range ns {
			rmse2 := sumSq[j] / float64(runs)
			mem := memSum[j] / float64(runs)
			points = append(points, Figure10Point{
				Name:        a.Name,
				N:           n,
				MemoryBytes: mem,
				MVP:         mem * 8 * rmse2,
			})
		}
	}
	return points
}

// OpTimings holds the average per-operation times of Figure 11 for one
// algorithm at one n.
type OpTimings struct {
	Name               string
	N                  int
	InsertNs           float64 // per inserted element, incl. hashing
	EstimateNs         float64
	SerializeNs        float64
	MergeNs            float64
	MergeAndEstimateNs float64
}

// Figure11 measures the five operation timings of Figure 11 for each
// algorithm and each n. Elements are random 16-byte keys hashed with
// Murmur3 (128-bit, first half used), exactly as the paper does to level
// the field between libraries. The insert time includes the initial
// allocation of the data structure, which is why small n show higher
// per-element times (as in the paper).
func Figure11(algos []Algorithm, ns []int, repetitions int, seed uint64) []OpTimings {
	maxN := ns[len(ns)-1]
	// Pre-generate the 16-byte keys. Hashing is still charged to insert: a
	// Counter takes hashes, so the Murmur3 evaluation runs inside the
	// timed loop.
	keys := make([][16]byte, maxN)
	state := seed
	for i := range keys {
		a := hashing.SplitMix64(&state)
		b := hashing.SplitMix64(&state)
		for j := 0; j < 8; j++ {
			keys[i][j] = byte(a >> (8 * j))
			keys[i][8+j] = byte(b >> (8 * j))
		}
	}
	var out []OpTimings
	for _, a := range algos {
		for _, n := range ns {
			reps := repetitions
			// Scale repetitions down for large n to bound runtime.
			if n > 10000 {
				reps = repetitions * 10000 / n
				if reps < 1 {
					reps = 1
				}
			}
			t := OpTimings{Name: a.Name, N: n}

			// Insert: build a fresh sketch from scratch each repetition.
			start := time.Now()
			var built Counter
			for r := 0; r < reps; r++ {
				built = a.New()
				for i := 0; i < n; i++ {
					h, _ := hashing.Murmur3_128(keys[i][:], 0)
					built.AddHash(h)
				}
			}
			t.InsertNs = float64(time.Since(start).Nanoseconds()) / float64(reps) / float64(n)

			// Estimate.
			estReps := reps * 10
			start = time.Now()
			sink := 0.0
			for r := 0; r < estReps; r++ {
				sink += built.Estimate()
			}
			t.EstimateNs = float64(time.Since(start).Nanoseconds()) / float64(estReps)
			_ = sink

			// Serialize.
			serReps := reps * 10
			start = time.Now()
			var serLen int
			for r := 0; r < serReps; r++ {
				serLen += len(a.Serialize(built))
			}
			t.SerializeNs = float64(time.Since(start).Nanoseconds()) / float64(serReps)
			_ = serLen

			if a.Merge == nil {
				t.MergeNs = math.NaN()
				t.MergeAndEstimateNs = math.NaN()
				out = append(out, t)
				continue
			}

			// Merge: both inputs filled with n elements. Merging mutates
			// the receiver, so rebuild a fresh copy per repetition by
			// replaying the second half of the key stream.
			other := a.New()
			for i := 0; i < n; i++ {
				h, _ := hashing.Murmur3_128(keys[maxN-1-i][:], 1)
				other.AddHash(h)
			}
			mergeReps := reps
			prepared := make([]Counter, mergeReps)
			for r := range prepared {
				c := a.New()
				for i := 0; i < n; i++ {
					h, _ := hashing.Murmur3_128(keys[i][:], 0)
					c.AddHash(h)
				}
				prepared[r] = c
			}
			start = time.Now()
			for r := 0; r < mergeReps; r++ {
				if err := a.Merge(prepared[r], other); err != nil {
					panic(err)
				}
			}
			t.MergeNs = float64(time.Since(start).Nanoseconds()) / float64(mergeReps)

			// Merge + estimate (the merged sketches are already merged;
			// rebuild once more for a fair combined measurement).
			prepared2 := make([]Counter, mergeReps)
			for r := range prepared2 {
				c := a.New()
				for i := 0; i < n; i++ {
					h, _ := hashing.Murmur3_128(keys[i][:], 0)
					c.AddHash(h)
				}
				prepared2[r] = c
			}
			start = time.Now()
			for r := 0; r < mergeReps; r++ {
				if err := a.Merge(prepared2[r], other); err != nil {
					panic(err)
				}
				sink += prepared2[r].Estimate()
			}
			t.MergeAndEstimateNs = float64(time.Since(start).Nanoseconds()) / float64(mergeReps)
			_ = sink

			out = append(out, t)
		}
	}
	return out
}
