package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// compareFiles prints, for two sets of recorded runs, one row per workload
// × metric that the workload owns (see owner): medians, quartile spread,
// change and, for an end-to-end metric, its bound and a verdict:
//
//	regressed   b's median is worse than a's by more than the bound
//	improved    b's median is better by more than either side's own spread
//	unresolved  a side's run-to-run spread is wider than the bound
//	unchanged   otherwise
//
// setup_s is judged by its medians alone, as the driver judges it: a second
// of boot and preload spreads by more than any bound on a shared box, and
// the metric cannot be given up.
//
// The owned per-layer metrics (the timings that do not repeat within a
// bound on a shared box, see README) follow without bound or verdict, and
// the failed-operation share per workload comes last. It reports whether
// every end-to-end row is unchanged or improved.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (clean bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	clean = true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tmedian a\tspread a\tmedian b\tspread b\tchange\tbound\tverdict")
	var failures []string
	for _, wl := range append([]workloadSpec{{Name: "all"}}, spec.Workloads...) {
		ra, rb := untraced(a, wl.Name), untraced(b, wl.Name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		failures = append(failures, fmt.Sprintf("failed operations %s: a %s, b %s", wl.Name, failedShare(ra), failedShare(rb)))
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			_, owned := owner[m.Name]
			if !owns(wl.Name, m.Name) || (m.Bound == 0 && !owned) {
				continue
			}
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t\t\t\t\t\t\tunresolved (missing)\n", wl.Name, m.Name, m.Unit, len(va), len(vb))
				clean = false
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			change := (mb - ma) / math.Abs(ma)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			bound, verdict := "", "not gating"
			if m.Bound > 0 {
				bound, verdict = fmt.Sprintf("%.0f%%", m.Bound*100), "unchanged"
				switch {
				case math.Max(sa, sb) > m.Bound && m.Name != "setup_s":
					verdict = "unresolved"
				case worse > m.Bound:
					verdict = "regressed"
				case -worse > math.Max(sa, sb) && worse != 0:
					verdict = "improved"
				}
			}
			if verdict == "unresolved" || verdict == "regressed" {
				clean = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.6g\t%.1f%%\t%.6g\t%.1f%%\t%+.1f%%\t%s\t%s\n",
				wl.Name, m.Name, m.Unit, len(va), len(vb), ma, sa*100, mb, sb*100, change*100, bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	for _, line := range failures {
		fmt.Fprintln(w, line)
	}
	return clean, nil
}

// untraced selects the runs of one workload whose end-to-end metrics count:
// those measured with tracing off.
func untraced(recs []record, workload string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedShare(recs []record) string {
	var attempted, failed int64
	for _, r := range recs {
		for _, n := range r.Attempted {
			attempted += n
		}
		for _, n := range r.Failed {
			failed += n
		}
	}
	if attempted == 0 {
		return "no runs"
	}
	return fmt.Sprintf("%d of %d (%.4f%%)", failed, attempted, 100*float64(failed)/float64(attempted))
}
