// Command ell-paper regenerates the figures and tables of the ExaLogLog
// paper, each as TSV on stdout (Table 2 as an aligned text table):
//
//	figure1   Figure 1: memory over relative standard error for MVPs 2..8
//	figure2   Figure 2: geometric vs approximated update-value PMFs (t = 1, 2)
//	figure4   Figure 4: MVP (3) vs d — dense registers, ML estimator
//	figure5   Figure 5: MVP (6) vs d — dense registers, martingale estimator
//	figure6   Figure 6: MVP (5) vs d — compressed state, ML estimator
//	figure7   Figure 7: MVP (7) vs d — compressed state, martingale estimator
//	figure8   Figure 8: bias and RMSE of ML and martingale estimation up to 10^21
//	figure9   Figure 9: bias and RMSE of ML estimation from hash-token sets
//	table2    Table 2: RMSE, sizes and empirical MVPs at ~2 % error, n = 10^6
//	figure10  Figure 10: memory footprint and empirical MVP over n
//	figure11  Figure 11: insert, estimate, serialize and merge times
//	section6  Section 6: register entropy vs dense and arithmetic-coded size
//
// Usage:
//
//	ell-paper [-scale smoke|default|paper] [id ...]
//
// No ids means every entry, in the order above. -scale sets the run
// counts of the simulated entries; the analytic ones (Figures 1–7) do not
// depend on it. default finishes in minutes; paper uses the paper's run
// counts (10^5 simulated sketches for Figures 8 and 9, 10^6 streams for
// Table 2 and Figure 10) and takes days; smoke is the test's scale and
// shows the shape of every table, not its statistics.
//
// Figure 11's absolute times differ from the paper's Java/C++ testbed; the
// claims that reproduce are relative: ELL inserts are constant-time and in
// the same league as HLL, CPC-like serialization is an order of magnitude
// slower than ELL's plain copy, and HLLL pays for its compression on
// inserts.
//
// Exit codes: 0 ok, 1 the output could not be written, 2 usage.
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"

	"exaloglog/internal/compare"
	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
	"exaloglog/internal/mvp"
	"exaloglog/internal/simulation"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// scale is the run counts of the simulated entries.
type scale struct {
	simRuns     int // Figures 8 and 9: simulated sketches per configuration
	compareRuns int // Table 2 and Figure 10: streams per algorithm
	perfReps    int // Figure 11: timing repetitions at small n
	perfMaxN    int // Figure 11: largest distinct count
	entropyRuns int // Section 6: sketches averaged per measurement
}

var scales = map[string]scale{
	"smoke":   {simRuns: 1, compareRuns: 1, perfReps: 1, perfMaxN: 10000, entropyRuns: 1},
	"default": {simRuns: 1000, compareRuns: 20, perfReps: 20, perfMaxN: 1000000, entropyRuns: 10},
	"paper":   {simRuns: 100000, compareRuns: 1000000, perfReps: 20, perfMaxN: 1000000, entropyRuns: 10},
}

// Fixed parameters of the entries.
const (
	dmax        = 60   // largest d of the MVP curves, Figures 4–7
	directLimit = 1e6  // Figure 8: distinct count up to which sketches are fed hashes; beyond it the waiting-time strategy of Section 5.1 takes over
	fig8MaxN    = 1e21 // Figure 8: largest simulated distinct count
	table2N     = 1000000

	simSeed     = 0x9e3779b97f4a7c15 // Figures 8 and 9
	compareSeed = 1                  // Table 2 and Figure 10
	perfSeed    = 42                 // Figure 11's element keys
	entropySeed = 7                  // Section 6
)

// entry is one figure or table of the paper.
type entry struct {
	id, section string
	run         func(w io.Writer, s scale)
}

var entries = []entry{
	{"figure1", "Figure 1: memory over relative standard error", figure1},
	{"figure2", "Figure 2: update-value PMFs", figure2},
	{"figure4", "Figure 4: MVP vs d, dense, ML", curves(4, mvp.KindDenseML, "dense registers, efficient (ML) estimator — eq. (3)")},
	{"figure5", "Figure 5: MVP vs d, dense, martingale", curves(5, mvp.KindDenseMartingale, "dense registers, martingale estimator — eq. (6)")},
	{"figure6", "Figure 6: MVP vs d, compressed, ML", curves(6, mvp.KindCompressedML, "compressed state, efficient (ML) estimator — eq. (5)")},
	{"figure7", "Figure 7: MVP vs d, compressed, martingale", curves(7, mvp.KindCompressedMartingale, "compressed state, martingale estimator — eq. (7)")},
	{"figure8", "Figure 8: estimation error up to 10^21", figure8},
	{"figure9", "Figure 9: estimation error from token sets", figure9},
	{"table2", "Table 2: space efficiency at ~2 % error", table2},
	{"figure10", "Figure 10: memory and MVP over n", figure10},
	{"figure11", "Figure 11: operation times", figure11},
	{"section6", "Section 6: register entropy and coded size", section6},
}

const usageLine = "usage: ell-paper [-scale smoke|default|paper] [id ...]"

func usage(w io.Writer) {
	fmt.Fprintln(w, usageLine)
	for _, e := range entries {
		fmt.Fprintf(w, "  %-9s %s\n", e.id, e.section)
	}
}

// run is main without the process: it parses args (everything after the
// program name), prints the chosen entries and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ell-paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	scaleName := fs.String("scale", "default", "run counts: smoke, default or paper")
	if err := fs.Parse(args); err != nil {
		return 2 // Parse has reported the error and the flag list
	}
	s, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "ell-paper: unknown scale %q\n", *scaleName)
		usage(stderr)
		return 2
	}
	chosen, err := pick(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "ell-paper:", err)
		usage(stderr)
		return 2
	}
	w := bufio.NewWriter(stdout)
	for _, e := range chosen {
		e.run(w, s)
		if err := w.Flush(); err != nil {
			fmt.Fprintln(stderr, "ell-paper:", err)
			return 1
		}
	}
	return 0
}

// pick returns the entries named by ids, in the order given; no ids is
// every entry.
func pick(ids []string) ([]entry, error) {
	if len(ids) == 0 {
		return entries, nil
	}
	var out []entry
	for _, id := range ids {
		i := slices.IndexFunc(entries, func(e entry) bool { return e.id == id })
		if i < 0 {
			return nil, fmt.Errorf("unknown entry %q", id)
		}
		out = append(out, entries[i])
	}
	return out, nil
}

func figure1(w io.Writer, _ scale) {
	fmt.Fprintln(w, "# Figure 1: memory (bytes) over relative standard error (%)")
	fmt.Fprintln(w, "figure\tmvp\trel_err_pct\tmemory_bytes")
	for _, s := range mvp.Figure1([]float64{2, 3, 4, 5, 6, 8}) {
		for _, p := range s.Points {
			fmt.Fprintf(w, "1\t%s\t%.1f\t%.1f\n", s.Label, p.X, p.Y)
		}
	}
}

func figure2(w io.Writer, _ scale) {
	fmt.Fprintln(w, "# Figure 2: update-value PMFs, geometric (2) vs approximate (8)")
	fmt.Fprintln(w, "figure\tt\tk\tgeometric\tapproximate")
	for _, t := range []int{1, 2} {
		g, a := mvp.Figure2(t, 21)
		for i := range g.Points {
			fmt.Fprintf(w, "2\t%d\t%d\t%.9f\t%.9f\n", t, i+1, g.Points[i].Y, a.Points[i].Y)
		}
	}
}

// curves is the entry of one of Figures 4–7, the MVP over d of one
// estimator and state.
func curves(id int, kind mvp.CurveKind, name string) func(io.Writer, scale) {
	return func(w io.Writer, _ scale) {
		fmt.Fprintf(w, "# Figure %d: MVP vs d — %s\n", id, name)
		fmt.Fprintln(w, "figure\tt\td\tmvp")
		for _, t := range []int{0, 1, 2, 3} {
			c := mvp.Curve(kind, t, dmax)
			for _, p := range c.Points {
				fmt.Fprintf(w, "%d\t%d\t%.0f\t%.4f\n", id, t, p.X, p.Y)
			}
			best := mvp.Minimum(c)
			fmt.Fprintf(w, "# figure %d t=%d minimum: d=%.0f MVP=%.4f\n", id, t, best.X, best.Y)
		}
		// Named reference points of the paper.
		if kind == mvp.KindDenseML {
			fmt.Fprintf(w, "# reference: HLL=ELL(0,0) %.3f, EHLL=ELL(0,1) %.3f, ULL=ELL(0,2) %.3f, ELL(1,9) %.3f, ELL(2,16) %.3f, ELL(2,20) %.3f, ELL(2,24) %.3f\n",
				mvp.DenseML(mvp.Base(0), 6, 0),
				mvp.DenseML(mvp.Base(0), 6, 1),
				mvp.DenseML(mvp.Base(0), 6, 2),
				mvp.DenseML(mvp.Base(1), 7, 9),
				mvp.DenseML(mvp.Base(2), 8, 16),
				mvp.DenseML(mvp.Base(2), 8, 20),
				mvp.DenseML(mvp.Base(2), 8, 24))
		}
	}
}

func figure8(w io.Writer, s scale) {
	fmt.Fprintln(w, "# Figure 8: relative bias and RMSE of ML and martingale estimation")
	fmt.Fprintln(w, "figure\tt\td\tp\tn\tml_bias\tml_rmse\tml_theory\tmart_bias\tmart_rmse\tmart_theory")
	checkpoints := simulation.Checkpoints(fig8MaxN, 3)
	for _, c := range []struct{ t, d int }{{1, 9}, {2, 16}, {2, 20}, {2, 24}} {
		for _, p := range []int{4, 6, 8, 10} {
			cfg := core.Config{T: c.t, D: c.d, P: p}
			// The runs are split over one goroutine per CPU; each worker's
			// sums are merged in worker order, so the output depends on
			// the CPU count only through float rounding of that split.
			workers := runtime.GOMAXPROCS(0)
			perWorker := (s.simRuns + workers - 1) / workers
			ml := make([][]simulation.ErrorStats, workers)
			mart := make([][]simulation.ErrorStats, workers)
			var wg sync.WaitGroup
			for wk := range workers {
				first := wk * perWorker
				count := min(perWorker, s.simRuns-first)
				ml[wk] = make([]simulation.ErrorStats, len(checkpoints))
				mart[wk] = make([]simulation.ErrorStats, len(checkpoints))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := range max(count, 0) {
						runSeed := simSeed + uint64(first+r)*0x100000001b3 + uint64(p)<<32 + uint64(c.t*100+c.d)
						for i, pt := range simulation.RunELL(cfg, checkpoints, directLimit, runSeed, true) {
							ml[wk][i].Add(pt.ML, pt.N)
							mart[wk][i].Add(pt.Martingale, pt.N)
						}
					}
				}()
			}
			wg.Wait()

			thML := mvp.TheoreticalRMSE(c.t, c.d, p, false)
			thMart := mvp.TheoreticalRMSE(c.t, c.d, p, true)
			for i, cp := range checkpoints {
				var mlStats, martStats simulation.ErrorStats
				for wk := range workers {
					mlStats.Merge(ml[wk][i])
					martStats.Merge(mart[wk][i])
				}
				fmt.Fprintf(w, "8\t%d\t%d\t%d\t%.6g\t%+.5f\t%.5f\t%.5f\t%+.5f\t%.5f\t%.5f\n",
					c.t, c.d, p, cp,
					mlStats.Bias(), mlStats.RMSE(), thML,
					martStats.Bias(), martStats.RMSE(), thMart)
			}
		}
	}
}

func figure9(w io.Writer, s scale) {
	fmt.Fprintln(w, "# Figure 9: bias and RMSE of ML estimation from hash-token sets")
	fmt.Fprintln(w, "figure\tv\ttoken_bits\tn\tbias\trmse")
	checkpoints := simulation.Checkpoints(1e5, 3)
	for _, v := range []int{6, 8, 10, 12, 18, 26} {
		stats := make([]simulation.ErrorStats, len(checkpoints))
		for r := range s.simRuns {
			res := simulation.RunTokens(v, checkpoints, simSeed+uint64(r)*2654435761+uint64(v)<<40)
			for i, pt := range res {
				stats[i].Add(pt.Estimate, pt.N)
			}
		}
		for i, cp := range checkpoints {
			fmt.Fprintf(w, "9\t%d\t%d\t%.6g\t%+.5f\t%.5f\n", v, v+6, cp, stats[i].Bias(), stats[i].RMSE())
		}
	}
}

func table2(w io.Writer, s scale) {
	fmt.Fprintf(w, "# Table 2: space-efficiency comparison at n=%d over %d runs\n", table2N, s.compareRuns)
	fmt.Fprintln(w, "# sorted by in-memory MVP (descending), as in the paper")
	fmt.Fprintf(w, "%-36s %8s %10s %12s %10s %12s %8s\n",
		"algorithm", "rmse", "memory_B", "serialized_B", "mvp_mem", "mvp_serial", "O(1)ins")
	rows := compare.Table2(compare.Table2Algorithms(), table2N, s.compareRuns, compareSeed)
	// The paper lists the best in-memory MVP, ELL's, at the bottom.
	slices.SortStableFunc(rows, func(a, b compare.Table2Row) int { return cmp.Compare(b.MVPMemory, a.MVPMemory) })
	for _, r := range rows {
		ct := "-"
		if r.ConstantTimeInsert {
			ct = "yes"
		}
		fmt.Fprintf(w, "%-36s %7.2f%% %10.0f %12.0f %10.2f %12.2f %8s\n",
			r.Name, r.RMSE*100, r.MemoryBytes, r.SerializedBytes, r.MVPMemory, r.MVPSerialized, ct)
	}
	fmt.Fprintln(w, "# conjectured lower bound: MVP 1.98")
}

func figure10(w io.Writer, s scale) {
	fmt.Fprintf(w, "# Figure 10: memory footprint and empirical MVP vs n over %d runs\n", s.compareRuns)
	fmt.Fprintln(w, "algorithm\tn\tmemory_bytes\tempirical_mvp")
	for _, p := range compare.Figure10(compare.Figure10Algorithms(), compare.Figure10Ns(), s.compareRuns, compareSeed) {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.2f\n", p.Name, p.N, p.MemoryBytes, p.MVP)
	}
}

func figure11(w io.Writer, s scale) {
	// n ∈ {10, 20, 50, 100, ..., perfMaxN}.
	var ns []int
	for base := 10; base <= s.perfMaxN/10; base *= 10 {
		for _, f := range []int{1, 2, 5} {
			if v := base * f; v <= s.perfMaxN {
				ns = append(ns, v)
			}
		}
	}
	ns = append(ns, s.perfMaxN)

	fmt.Fprintln(w, "# Figure 11: average operation times (ns)")
	fmt.Fprintln(w, "algorithm\tn\tinsert_ns\testimate_ns\tserialize_ns\tmerge_ns\tmerge_estimate_ns")
	for _, r := range compare.Figure11(compare.Figure11Algorithms(), ns, s.perfReps, perfSeed) {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			r.Name, r.N, r.InsertNs, r.EstimateNs, r.SerializeNs, r.MergeNs, r.MergeAndEstimateNs)
	}
}

// section6 is the compressibility study Section 6 outlines as future
// work. Per configuration and distinct count it compares the dense
// register size (6+t+d bits), the Shannon entropy of the register
// distribution (the Section 3.1 PMF; the lower bound of any lossless
// coding), the size this repository's adaptive arithmetic coder achieves
// (Sketch.MarshalCompressed) and Figure 6's compressed-MVP ratio.
func section6(w io.Writer, s scale) {
	fmt.Fprintln(w, "# Section 6 compressibility study")
	fmt.Fprintln(w, "t\td\tp\tn\tdense_bits_per_reg\tentropy_bits_per_reg\tcoded_bits_per_reg\tfig6_ratio")
	for _, cfg := range []core.Config{
		{T: 0, D: 2, P: 10},  // ULL, the case the paper reports compresses well
		{T: 1, D: 9, P: 10},  // 16-bit registers
		{T: 2, D: 16, P: 10}, // 24-bit registers
		{T: 2, D: 20, P: 10}, // the recommended ML configuration
	} {
		dense := float64(cfg.RegisterWidth())
		b := mvp.Base(cfg.T)
		fig6 := mvp.CompressedML(b, cfg.D) / mvp.DenseML(b, 6+cfg.T, cfg.D)
		for _, n := range []int{100, 1000, 10000, 100000, 1000000} {
			coded := 0.0
			for r := range s.entropyRuns {
				sk := core.MustNew(cfg)
				state := entropySeed + uint64(r)*2654435761 + uint64(n)
				for range n {
					sk.AddHash(hashing.SplitMix64(&state))
				}
				comp, err := sk.MarshalCompressed()
				if err != nil {
					panic(err) // a sketch of a valid configuration always codes
				}
				coded += float64(len(comp)-5) * 8 / float64(cfg.NumRegisters())
			}
			coded /= float64(s.entropyRuns)
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f\t%.3f\t%.3f\t%.3f\n",
				cfg.T, cfg.D, cfg.P, n, dense, cfg.RegisterEntropy(float64(n)), coded, fig6)
		}
	}
}
