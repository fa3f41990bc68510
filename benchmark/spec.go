package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// The benchmark's contract lives in BENCHMARK.json at the repository root:
// workload names, every metric's name, unit, direction and — for the
// end-to-end ones — its regression bound. The program reads it instead of
// repeating it, so a metric that is printed but not declared (or declared
// but never produced) is an error of the run, not a silent drift.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`

	byName map[string]metricSpec
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.byName = make(map[string]metricSpec, len(s.EndToEnd)+len(s.PerLayer))
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if _, dup := s.byName[m.Name]; dup {
			return nil, fmt.Errorf("%s: metric %q declared twice", path, m.Name)
		}
		s.byName[m.Name] = m
	}
	return &s, nil
}

// owner names the workload that measures one of the issue's thirteen
// user-visible metrics, whether BENCHMARK.json lists it as end-to-end or,
// because it does not repeat within its bound on a shared box, as
// per-layer. Every invocation runs all four workloads (the driver reads
// every declared metric from every run), so each run carries all of them; a
// claim about a metric rests on its owner's runs, and -compare prints only
// those rows. setup_s belongs to every workload.
var owner = map[string]string{
	"insert_ns":              "lib-sketch",
	"estimate_us":            "lib-sketch",
	"merge_us":               "lib-sketch",
	"mvp":                    "lib-sketch",
	"write_cmds_per_s":       "serve-write",
	"read_ops_per_s":         "serve-read",
	"pfcount_cold_p50_us":    "serve-read",
	"union8_p50_us":          "serve-read",
	"wcount_p50_us":          "serve-read",
	"resident_bytes_per_key": "many-keys",
	"snapshot_s":             "many-keys",
	"rebalance_s":            "many-keys",
}

// owns reports whether workload (or "all") measures metric at the length
// -seconds asked for.
func owns(workload, metric string) bool {
	o, ok := owner[metric]
	return !ok || o == workload || workload == "all"
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one verification of the program's outputs against the oracle.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result gathers everything one invocation measured. It is filled by one
// goroutine (the workloads run one after another).
type result struct {
	spec      *benchSpec
	vals      map[string]float64
	slices    map[string][]float64 // per-slice observations, settled into vals at the end
	attempted map[string]int64     // per workload
	failed    map[string]int64
	digests   map[string]string
	checks    []check
}

func newResult(spec *benchSpec) *result {
	return &result{
		spec:      spec,
		vals:      make(map[string]float64),
		slices:    make(map[string][]float64),
		attempted: make(map[string]int64),
		failed:    make(map[string]int64),
		digests:   make(map[string]string),
	}
}

// set records a metric. An undeclared name, a second value for a name or a
// value that is not a finite number is a bug in the benchmark itself.
func (r *result) set(name string, v float64) {
	if _, ok := r.spec.byName[name]; !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in BENCHMARK.json", name))
	}
	if _, dup := r.vals[name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q set twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("benchmark: metric %q is %v", name, v))
	}
	r.vals[name] = v
}

// observe records one slice's value of a metric; settle reduces the slices
// of each observed metric to their median.
func (r *result) observe(name string, v float64) {
	if _, ok := r.spec.byName[name]; !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in BENCHMARK.json", name))
	}
	r.slices[name] = append(r.slices[name], v)
}

func (r *result) settle() {
	for name, v := range r.slices {
		r.set(name, median(v))
	}
	r.slices = make(map[string][]float64)
}

func (r *result) ops(workload string, attempted, failed int64) {
	r.attempted[workload] += attempted
	r.failed[workload] += failed
}

func (r *result) verify(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// metrics returns the declared metrics of one list with their measured
// values, and the declared names nothing produced.
func (r *result) metrics(list []metricSpec) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(list))
	var missing []string
	for _, m := range list {
		v, ok := r.vals[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	sort.Strings(missing)
	return out, missing
}

func (r *result) totals() (attempted, failed int64) {
	for _, n := range r.attempted {
		attempted += n
	}
	for _, n := range r.failed {
		failed += n
	}
	return attempted, failed
}
