package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// issueBounds are the thirteen user-visible metrics of ISSUE 12 and the
// share by which each may worsen. setup_s carries the contract's largest
// bound (the issue: 15 % or 0.2 s, whichever is larger, which for set-ups
// near a second is above 25 %).
var issueBounds = map[string]float64{
	"setup_s": 0.25, "mvp": 0.02, "resident_bytes_per_key": 0.02,
	"insert_ns": 0.10, "estimate_us": 0.10, "merge_us": 0.10,
	"write_cmds_per_s": 0.10, "read_ops_per_s": 0.10,
	"pfcount_cold_p50_us": 0.10, "union8_p50_us": 0.10, "wcount_p50_us": 0.10,
	"snapshot_s": 0.10, "rebalance_s": 0.10,
}

// TestSpecMeetsTheContract checks BENCHMARK.json against the limits a
// driver refuses a benchmark for, before a single run.
func TestSpecMeetsTheContract(t *testing.T) {
	raw, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("%d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(got, " ") != want {
		t.Errorf("keys %v, want exactly %s", got, want)
	}
	for list, fields := range map[string]string{"workloads": "name why", "end_to_end": "better bound name unit", "per_layer": "better name unit"} {
		var entries []map[string]json.RawMessage
		if err := json.Unmarshal(keys[list], &entries); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			var have []string
			for k := range e {
				have = append(have, k)
			}
			sort.Strings(have)
			if strings.Join(have, " ") != fields {
				t.Errorf("%s entry %s has keys %v, want exactly %s", list, e["name"], have, fields)
			}
		}
	}

	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command of %d strings", len(spec.Command))
	}
	for _, arg := range spec.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q", arg)
		}
	}
	if len(spec.Paths) < 1 || len(spec.Paths) > 16 {
		t.Errorf("%d paths", len(spec.Paths))
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != 4 {
		t.Errorf("%d workloads, the issue fixes 4", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(spec.EndToEnd))
	}
	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(spec.PerLayer))
	}
	setUp := false
	for _, m := range spec.EndToEnd {
		name("end-to-end", m.Name)
		// A metric gates at the bound the issue fixed for it or not at all:
		// one that does not repeat within it moves to per_layer, its bound
		// is never widened.
		if want, ok := issueBounds[m.Name]; !ok || m.Bound != want {
			t.Errorf("%s: bound %v, the issue fixes %v", m.Name, m.Bound, want)
		}
		if m.Name == "setup_s" {
			setUp = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setUp {
		t.Error(`no end-to-end metric setup_s with unit "s" and better "lower"`)
	}
	for metric := range issueBounds {
		if _, ok := spec.byName[metric]; !ok {
			t.Errorf("%s is declared neither end-to-end nor per-layer", metric)
		}
		if _, ok := owner[metric]; !ok && metric != "setup_s" {
			t.Errorf("%s has no owning workload", metric)
		}
	}
	for metric, w := range owner {
		if _, ok := issueBounds[metric]; !ok || !spec.hasWorkload(w) {
			t.Errorf("owner[%s] = %s", metric, w)
		}
	}
	for _, m := range spec.PerLayer {
		name("per-layer", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}
