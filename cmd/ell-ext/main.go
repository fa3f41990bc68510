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
	"bufio"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sizes are the input sizes of the experiments.
type sizes struct {
	anfNodes     int // EXT-1: graph nodes
	overlapN     int // EXT-3: |A| = |B|
	windowPerSec int // EXT-4: values per second
	skewEvents   int // EXT-5: events per workload
}

var full = sizes{anfNodes: 2000, overlapN: 100000, windowPerSec: 500, skewEvents: 1000000}

// experiment is one table of the command.
type experiment struct {
	name string
	run  func(w io.Writer, z sizes)
}

var experiments = []experiment{
	{"anf", runANF},
	{"overlap", runOverlap},
	{"window", runWindow},
	{"skew", runSkew},
}

// run is main without the process: it parses args (everything after the
// program name), prints the chosen experiments and returns the exit code
// — 0 ok, 1 the output could not be written, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ell-ext", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("experiment", "all", "anf | overlap | window | skew | all")
	if err := fs.Parse(args); err != nil {
		return 2 // Parse has reported the error and the flag list
	}
	var chosen []experiment
	for _, e := range experiments {
		if *name == "all" || e.name == *name {
			chosen = append(chosen, e)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "ell-ext: unknown experiment %q\n", *name)
		return 2
	}
	w := bufio.NewWriter(stdout)
	for i, e := range chosen {
		if i > 0 {
			fmt.Fprintln(w)
		}
		e.run(w, full)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "ell-ext:", err)
		return 1
	}
	return 0
}

// runANF compares the HyperANF estimate against exact BFS on a
// preferential-attachment graph.
func runANF(w io.Writer, z sizes) {
	fmt.Fprintf(w, "# EXT-1: HyperANF neighborhood function vs exact (PA graph, %d nodes, k=3, ELL(2,20,8))\n", z.anfNodes)
	fmt.Fprintln(w, "r\tapprox_N\texact_N\trel_err_pct")
	g := graph.PreferentialAttachment(z.anfNodes, 3, 42)
	res, err := graph.ApproxNeighborhood(g, core.Config{T: 2, D: 20, P: 8}, graph.Options{})
	if err != nil {
		panic(err)
	}
	exact := graph.ExactNeighborhood(g, 0)
	for r := 0; r < len(res.N) && r < len(exact); r++ {
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%+.2f\n", r, res.N[r], exact[r], (res.N[r]/exact[r]-1)*100)
	}
	fmt.Fprintf(w, "# effective diameter (90%%): approx %.2f\n", res.EffectiveDiameter(0.9))
}

// runOverlap sweeps the true Jaccard similarity and reports the
// inclusion–exclusion estimation error, illustrating that the relative
// intersection error grows as the overlap shrinks.
func runOverlap(w io.Writer, z sizes) {
	fmt.Fprintf(w, "# EXT-3: inclusion–exclusion error vs true overlap (|A|=|B|=%d, p=12)\n", z.overlapN)
	fmt.Fprintln(w, "true_jaccard\test_jaccard\tjaccard_err_abs\tintersection_rel_err_pct")
	n := z.overlapN
	for _, overlapFrac := range []float64{0.5, 0.2, 0.1, 0.05, 0.02, 0.01} {
		overlap := int(overlapFrac * float64(n))
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
		fmt.Fprintf(w, "%.4f\t%.4f\t%.4f\t%+.1f\n", trueJ, e.Jaccard, math.Abs(e.Jaccard-trueJ), relErr)
	}
}

// runSkew is the negative control: the estimation error must be a
// function of the distinct count only — duplication factor, popularity
// skew and duplicate clustering must not matter (idempotency +
// commutativity, Section 1).
func runSkew(w io.Writer, z sizes) {
	fmt.Fprintf(w, "# EXT-5: estimate vs exact under duplication skew (%d events, ELL(2,20,12))\n", z.skewEvents)
	fmt.Fprintln(w, "workload\tevents\texact_distinct\testimate\trel_err_pct")
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
		for range z.skewEvents {
			h := ns.s.NextHash()
			sketch.AddHash(h)
			exact.Observe(h)
		}
		est := sketch.EstimateML()
		truth := float64(exact.Count())
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%+.2f\n", ns.name, z.skewEvents, exact.Count(), est, (est/truth-1)*100)
	}
}

// runWindow replays a stream with a moving distinct-value population and
// compares sliding-window estimates with exact sliding counts.
func runWindow(w io.Writer, z sizes) {
	fmt.Fprintln(w, "# EXT-4: sliding-window estimate vs exact (60 slices x 1s, ELL(2,20,11))")
	fmt.Fprintln(w, "minute\twindow_s\testimate\texact\trel_err_pct")
	c, err := window.New(core.RecommendedML(11), time.Second, 60)
	if err != nil {
		panic(err)
	}
	base := time.Date(2026, 6, 13, 0, 0, 0, 0, time.UTC)
	state := uint64(99)
	// Each second: windowPerSec values drawn from a window-dependent
	// population of 30·windowPerSec (values rotate every 30 s, so the
	// 60 s window holds ≈ 2 populations).
	type obs struct {
		slice int64
		v     uint64
	}
	var log []obs
	for sec := 0; sec < 180; sec++ {
		ts := base.Add(time.Duration(sec) * time.Second)
		epoch := uint64(sec / 30)
		for range z.windowPerSec {
			v := epoch<<32 | hashing.SplitMix64(&state)%uint64(30*z.windowPerSec)
			c.AddUint64(ts, v)
			log = append(log, obs{int64(sec), v})
		}
		if (sec+1)%60 != 0 {
			continue
		}
		for _, span := range []int64{10, 30, 60} {
			exactSet := make(map[uint64]struct{})
			for _, o := range log {
				if o.slice > int64(sec)-span && o.slice <= int64(sec) {
					exactSet[o.v] = struct{}{}
				}
			}
			got := c.Estimate(ts, time.Duration(span)*time.Second)
			exact := float64(len(exactSet))
			fmt.Fprintf(w, "%d\t%d\t%.0f\t%.0f\t%+.2f\n", (sec+1)/60, span, got, exact, (got/exact-1)*100)
		}
	}
}
