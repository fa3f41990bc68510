// Command ell-ext runs the extension experiments built on top of the
// paper reproduction — the application subsystems of the packages
// exaloglog/graph, exaloglog/window and exaloglog/similarity. These go
// beyond the paper's own evaluation; each experiment prints a TSV table,
// consistent with the other cmd/ binaries.
//
// Experiments:
//
//	-experiment anf        HyperANF neighborhood function vs exact BFS
//	-experiment overlap    inclusion–exclusion error vs true Jaccard
//	-experiment window     sliding-window estimate vs exact sliding count
//	-experiment skew       estimation error under duplication skew (negative control)
//	-experiment all        everything above
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"exaloglog/graph"
	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
	"exaloglog/internal/workload"
	"exaloglog/similarity"
	"exaloglog/window"
)

func main() {
	experiment := flag.String("experiment", "all", "anf | overlap | window | skew | all")
	flag.Parse()

	switch *experiment {
	case "anf":
		runANF()
	case "overlap":
		runOverlap()
	case "window":
		runWindow()
	case "skew":
		runSkew()
	case "all":
		runANF()
		fmt.Println()
		runOverlap()
		fmt.Println()
		runWindow()
		fmt.Println()
		runSkew()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// runANF compares the HyperANF estimate against exact BFS on a
// preferential-attachment graph.
func runANF() {
	fmt.Println("# EXT-1: HyperANF neighborhood function vs exact (PA graph, 2000 nodes, k=3, ELL(2,20,8))")
	fmt.Println("r\tapprox_N\texact_N\trel_err_pct")
	g := graph.PreferentialAttachment(2000, 3, 42)
	res, err := graph.ApproxNeighborhood(g, core.Config{T: 2, D: 20, P: 8}, graph.Options{})
	if err != nil {
		panic(err)
	}
	exact := graph.ExactNeighborhood(g, 0)
	for r := 0; r < len(res.N) && r < len(exact); r++ {
		fmt.Printf("%d\t%.0f\t%.0f\t%+.2f\n", r, res.N[r], exact[r], (res.N[r]/exact[r]-1)*100)
	}
	fmt.Printf("# effective diameter (90%%): approx %.2f\n", res.EffectiveDiameter(0.9))
}

// runOverlap sweeps the true Jaccard similarity and reports the
// inclusion–exclusion estimation error, illustrating that the relative
// intersection error grows as the overlap shrinks.
func runOverlap() {
	fmt.Println("# EXT-3: inclusion–exclusion error vs true overlap (|A|=|B|=100000, p=12)")
	fmt.Println("true_jaccard\test_jaccard\tjaccard_err_abs\tintersection_rel_err_pct")
	const n = 100000
	for _, overlapFrac := range []float64{0.5, 0.2, 0.1, 0.05, 0.02, 0.01} {
		overlap := int(overlapFrac * n)
		a := core.MustNew(core.RecommendedML(12))
		b := core.MustNew(core.RecommendedML(12))
		for i := 0; i < n; i++ {
			a.AddUint64(uint64(i))
			b.AddUint64(uint64(i + n - overlap))
		}
		e, err := similarity.Analyze(a, b)
		if err != nil {
			panic(err)
		}
		trueJ := float64(overlap) / float64(2*n-overlap)
		relErr := math.NaN()
		if overlap > 0 {
			relErr = (e.Intersection/float64(overlap) - 1) * 100
		}
		fmt.Printf("%.4f\t%.4f\t%.4f\t%+.1f\n", trueJ, e.Jaccard, math.Abs(e.Jaccard-trueJ), relErr)
	}
}

// runSkew is the negative control: the estimation error must be a
// function of the distinct count only — duplication factor, popularity
// skew and duplicate clustering must not matter (idempotency +
// commutativity, Section 1).
func runSkew() {
	fmt.Println("# EXT-5: estimate vs exact under duplication skew (1e6 events, ELL(2,20,12))")
	fmt.Println("workload\tevents\texact_distinct\testimate\trel_err_pct")
	type namedStream struct {
		name string
		s    workload.Stream
	}
	for _, ns := range []namedStream{
		{"uniform (no duplicates)", workload.NewUniform(1)},
		{"zipf s=1.0 over 200k", workload.NewZipf(2, 200000, 1.0)},
		{"zipf s=1.5 over 200k", workload.NewZipf(3, 200000, 1.5)},
		{"bursty x100 uniform", workload.NewBursty(workload.NewUniform(4), 100)},
	} {
		sketch := core.MustNew(core.RecommendedML(12))
		exact := workload.NewDistinctCounter()
		const events = 1000000
		for i := 0; i < events; i++ {
			h := ns.s.NextHash()
			sketch.AddHash(h)
			exact.Observe(h)
		}
		est := sketch.EstimateML()
		truth := float64(exact.Count())
		fmt.Printf("%s\t%d\t%d\t%.0f\t%+.2f\n", ns.name, events, exact.Count(), est, (est/truth-1)*100)
	}
}

// runWindow replays a stream with a moving distinct-value population and
// compares sliding-window estimates with exact sliding counts.
func runWindow() {
	fmt.Println("# EXT-4: sliding-window estimate vs exact (60 slices x 1s, ELL(2,20,11))")
	fmt.Println("minute\twindow_s\testimate\texact\trel_err_pct")
	c, err := window.New(core.RecommendedML(11), time.Second, 60)
	if err != nil {
		panic(err)
	}
	base := time.Date(2026, 6, 13, 0, 0, 0, 0, time.UTC)
	state := uint64(99)
	// Each second: 500 distinct values drawn from a window-dependent
	// population (values rotate every 30 s, so the 60 s window holds
	// ≈ 2 populations).
	type obs struct {
		slice int64
		v     uint64
	}
	var log []obs
	for sec := 0; sec < 180; sec++ {
		ts := base.Add(time.Duration(sec) * time.Second)
		epoch := uint64(sec / 30)
		for i := 0; i < 500; i++ {
			v := epoch<<32 | hashing.SplitMix64(&state)%15000
			c.AddUint64(ts, v)
			log = append(log, obs{int64(sec), v})
		}
		if (sec+1)%60 != 0 {
			continue
		}
		for _, w := range []int64{10, 30, 60} {
			exactSet := make(map[uint64]struct{})
			for _, o := range log {
				if o.slice > int64(sec)-w && o.slice <= int64(sec) {
					exactSet[o.v] = struct{}{}
				}
			}
			got := c.Estimate(ts, time.Duration(w)*time.Second)
			exact := float64(len(exactSet))
			fmt.Printf("%d\t%d\t%.0f\t%.0f\t%+.2f\n", (sec+1)/60, w, got, exact, (got/exact-1)*100)
		}
	}
}
