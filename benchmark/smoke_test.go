package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs all four workloads traced at tiny sizes: every oracle
// check must pass, no operation may fail, and every metric BENCHMARK.json
// declares must come out (result.set refuses the opposite: a name it does
// not declare).
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	start := time.Now()
	res, err := execute(options{workload: "all", seed: 42, seconds: 0.4, trace: true, outDir: out}, spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 20*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v", took)
	}
	for _, ch := range res.checks {
		if !ch.OK {
			t.Errorf("check %s: %s", ch.Name, ch.Detail)
		}
	}
	if len(res.checks) < 10 {
		t.Errorf("only %d oracle checks ran", len(res.checks))
	}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		if _, missing := res.metrics(list); len(missing) > 0 {
			t.Errorf("declared but not measured: %v", missing)
		}
	}
	for _, w := range spec.Workloads {
		if res.attempted[w.Name] < 1 || res.failed[w.Name] != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, res.attempted[w.Name], res.failed[w.Name])
		}
		if len(res.digests[w.Name]) != 16 {
			t.Errorf("%s: workload_digest %q", w.Name, res.digests[w.Name])
		}
		if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
	for _, name := range []string{"client.redirects", "client.errors", "wire.errors", "digestsync.keys_repaired", "transfer.fallback_keys"} {
		if res.vals[name] != 0 {
			t.Errorf("%s = %v on a healthy cluster", name, res.vals[name])
		}
	}

	// The same seed again, through another entry workload and untraced:
	// same inputs, and the exact metric is bit-identical.
	again, err := execute(options{workload: "lib-sketch", seed: 42, seconds: 0.2, outDir: out}, spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"lib-sketch", "serve-write", "serve-read"} { // many-keys sizes its keyspace by -seconds
		if res.digests[w] != again.digests[w] {
			t.Errorf("%s: digests %s and %s for one seed", w, res.digests[w], again.digests[w])
		}
	}
	if res.vals["mvp"] != again.vals["mvp"] {
		t.Errorf("mvp: %v then %v", res.vals["mvp"], again.vals["mvp"])
	}
}

// TestResultLine drives the command as the driver does: one workload,
// untraced; the last line of standard output is the result object with
// every end-to-end metric and nothing else. The record it appends compares
// clean against itself.
func TestResultLine(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "runs.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "many-keys", "--seed", "7", "--seconds", "0.3", "--trace", "0",
		"-spec", specFile, "-out", dir, "-record", rec}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, " ") != "attempted correct failed metrics" {
		t.Errorf("result keys %v", keys)
	}
	var result resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Correct || result.Attempted < 1 || result.Failed != 0 || len(result.Metrics) != len(spec.EndToEnd) {
		t.Errorf("result %+v", result)
	}
	for _, m := range spec.EndToEnd {
		if v, ok := result.Metrics[m.Name]; !ok || v.Unit != m.Unit || v.Value == 0 {
			t.Errorf("%s: %+v", m.Name, v)
		}
	}

	stdout.Reset()
	if code := realMain([]string{"-spec", specFile, "-compare", rec, rec}, &stdout, &stderr); code != 0 {
		t.Fatalf("compare exit %d: %s%s", code, stdout.String(), stderr.String())
	}
	// One row per metric many-keys owns: setup_s and its own three.
	table := stdout.String()
	gating := 0
	for _, m := range spec.EndToEnd {
		if owns("many-keys", m.Name) {
			gating++
		}
	}
	if n := strings.Count(table, "unchanged"); n != gating || gating < 2 {
		t.Errorf("%d rows unchanged, want %d:\n%s", n, gating, table)
	}
	if n := strings.Count(table, "unchanged") + strings.Count(table, "not gating"); n != 4 {
		t.Errorf("%d rows, want setup_s, resident_bytes_per_key, snapshot_s, rebalance_s:\n%s", n, table)
	}
	if strings.Contains(table, "insert_ns") {
		t.Errorf("a row for a metric many-keys does not own:\n%s", table)
	}
	if !strings.Contains(table, "failed operations many-keys: a 0 of") {
		t.Errorf("no failed-operation share:\n%s", table)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// A contract of its own, so that the verdicts are tested whichever
	// metrics BENCHMARK.json currently lets gate.
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "lib-sketch"}},
		EndToEnd: []metricSpec{
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
			{Name: "insert_ns", Unit: "ns", Better: "lower", Bound: 0.1},
			{Name: "estimate_us", Unit: "us", Better: "lower", Bound: 0.1},
			{Name: "mvp", Unit: "bits", Better: "lower", Bound: 0.02},
		},
		PerLayer: []metricSpec{
			{Name: "merge_us", Unit: "us", Better: "lower"},
			{Name: "core.merge_us", Unit: "us", Better: "lower"},
			{Name: "write_cmds_per_s", Unit: "1/s", Better: "higher"},
		},
	}
	write := func(name string, insert, estimate, mergeUs []float64) string {
		path := filepath.Join(t.TempDir(), name)
		for i := range insert {
			rec := record{Workload: "lib-sketch", Attempted: map[string]int64{"lib-sketch": 100}, Failed: map[string]int64{"lib-sketch": int64(i % 2)},
				Metrics: map[string]metricValue{}}
			for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
				rec.Metrics[m.Name] = metricValue{Value: 1, Unit: m.Unit}
			}
			rec.Metrics["setup_s"] = metricValue{Value: mergeUs[i] / 50, Unit: "s"} // as wide a spread, and judged by its medians
			rec.Metrics["insert_ns"] = metricValue{Value: insert[i], Unit: "ns"}
			rec.Metrics["estimate_us"] = metricValue{Value: estimate[i], Unit: "us"}
			rec.Metrics["merge_us"] = metricValue{Value: mergeUs[i], Unit: "us"}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{20, 20.1, 19.9, 20}, []float64{150, 150.1, 149.9, 150}, []float64{50, 90, 20, 55})
	b := write("b.jsonl", []float64{30, 30.1, 29.9, 30}, []float64{100, 100.1, 99.9, 100}, []float64{80, 120, 50, 85})
	var out bytes.Buffer
	clean, err := compareFiles(&out, spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if clean {
		t.Error("a regression reported as clean")
	}
	// merge_us is per-layer and owned: a row without a verdict. The other
	// two per-layer metrics are not lib-sketch's or nobody's: no row.
	for metric, verdict := range map[string]string{"setup_s": "regressed", "insert_ns": "regressed", "estimate_us": "improved", "merge_us": "gating", "mvp": "unchanged"} {
		found := false
		for _, row := range strings.Split(out.String(), "\n") {
			f := strings.Fields(row)
			if len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s not labelled %s:\n%s", metric, verdict, out.String())
		}
	}
	if strings.Contains(out.String(), "core.merge_us") || strings.Contains(out.String(), "write_cmds_per_s") {
		t.Errorf("rows for metrics lib-sketch does not own:\n%s", out.String())
	}
	// A spread wider than the bound on either side is unresolved, not unchanged.
	noisy := write("noisy.jsonl", []float64{20, 26, 15, 21}, []float64{150, 150.1, 149.9, 150}, []float64{50, 90, 20, 55})
	out.Reset()
	if clean, err := compareFiles(&out, spec, a, noisy); err != nil || clean || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("clean=%v err=%v:\n%s", clean, err, out.String())
	}
	if !strings.Contains(out.String(), "a 2 of 400 (0.5000%)") {
		t.Errorf("failed share:\n%s", out.String())
	}
}
