// Command benchmark is the one yardstick for the whole stack: four seeded,
// self-checking workloads over the sketch library, the server and the
// cluster, thirteen end-to-end metrics with fixed regression bounds, and a
// traced mode that attributes time to layers. See README.md.
//
//	go run -C benchmark . -workload serve-read -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// companionSeconds is the length at which the workloads other than the
// requested one run. The driver reads every declared metric from every
// run, and each metric is measured by exactly one workload, so every
// invocation runs all four, one after another, each alone in the process;
// -workload says which one gets -seconds.
const companionSeconds = 3.0

// setUpRepeats: every workload is set up this many times (the last one is
// measured) and its set-up time is the median, which one slow boot does not
// move.
const setUpRepeats = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	record   string
	specPath string
	outDir   string
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace string
	var compare bool
	fs.StringVar(&o.workload, "workload", "all", "lib-sketch, serve-write, serve-read, many-keys or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the requested workload's timed phases")
	fs.StringVar(&trace, "trace", "0", "1: traced run, reports the per-layer metrics and writes out/<workload>.trace.json")
	fs.StringVar(&o.record, "record", "", "append the full result as one JSON line to this file (input of -compare)")
	fs.StringVar(&o.specPath, "spec", "../BENCHMARK.json", "the benchmark contract")
	fs.StringVar(&o.outDir, "out", "out", "directory for trace files and temporary snapshots")
	fs.BoolVar(&compare, "compare", false, "compare two -record files: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two record files")
			return 2
		}
		clean, err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !clean {
			return 1
		}
		return 0
	}
	if o.trace, err = strconv.ParseBool(trace); err != nil {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if o.workload != "all" && !spec.hasWorkload(o.workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	env := environment()
	fmt.Fprintf(stdout, "benchmark workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "env commit=%s go=%s nproc=%d gomaxprocs=%d cpu=%q clients=%d (closed loop)\n",
		env.Commit, env.Go, env.NProc, env.GoMaxProcs, env.CPU, clients)
	res, err := execute(o, spec, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := report(stdout, o, spec, env, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// execute runs every workload, the requested one ("all": each) for
// o.seconds and the others for companionSeconds, and returns what they
// measured. setup_s is the same thing in every mode: the sum of the four
// workloads' set-up times.
func execute(o options, spec *benchSpec, log io.Writer) (*result, error) {
	res := newResult(spec)
	c := &runCtx{seed: o.seed, trace: o.trace, res: res, outDir: o.outDir, log: log, procOwner: o.workload}
	if o.workload == "all" {
		// Whole-process figures can describe one workload only; the routed
		// write path is where its allocations and CPU are in question.
		c.procOwner = "serve-write"
	}
	setUpSeconds := 0.0
	for _, w := range spec.Workloads {
		secs := o.seconds
		if o.workload != "all" && o.workload != w.Name && secs > companionSeconds {
			secs = companionSeconds
		}
		took, err := runWorkload(c, w.Name, secs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		c.logf("%s: %g s timed, set-up %.3f s", w.Name, secs, took)
		setUpSeconds += took
	}
	res.settle()
	res.set("setup_s", setUpSeconds)
	return res, nil
}

// runWorkload takes one workload from set-up to tear-down and returns its
// set-up time.
func runWorkload(c *runCtx, name string, secs float64) (setUpSeconds float64, err error) {
	var w workload
	var took []float64
	for r := 0; r < setUpRepeats; r++ {
		if w != nil {
			w.tearDown()
		}
		w = newWorkload(name)
		t0 := time.Now()
		if err := w.setUp(c, secs); err != nil {
			w.tearDown()
			return 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	defer w.tearDown()
	for pass := 0; pass < passes; pass++ {
		// Collect what set-up or the previous slice left behind before this
		// slice is timed, so every slice starts from the same heap.
		runtime.GC()
		if err := w.measure(c, secs/passes); err != nil {
			return 0, err
		}
	}
	return median(took), w.finish(c)
}

// envBlock is the environment every result records.
type envBlock struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

func environment() envBlock {
	e := envBlock{Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), CPU: "unknown"}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return e
}

// record is one line of a -record file.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       envBlock               `json:"env"`
	Digests   map[string]string      `json:"workload_digest"`
	Checks    []check                `json:"checks"`
	Attempted map[string]int64       `json:"attempted"`
	Failed    map[string]int64       `json:"failed"`
	Correct   bool                   `json:"correct"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func report(w io.Writer, o options, spec *benchSpec, env envBlock, res *result) error {
	for _, wl := range spec.Workloads {
		if d, ok := res.digests[wl.Name]; ok {
			fmt.Fprintf(w, "workload_digest %s %s\n", wl.Name, d)
		}
	}
	for _, ch := range res.checks {
		state := "ok"
		if !ch.OK {
			state = "FAILED"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", ch.Name, state, ch.Detail)
	}
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "ops %s attempted=%d failed=%d\n", wl.Name, res.attempted[wl.Name], res.failed[wl.Name])
	}
	endToEnd, missing := res.metrics(spec.EndToEnd)
	if len(missing) > 0 {
		return fmt.Errorf("end-to-end metrics declared but not measured: %v", missing)
	}
	perLayer, missing := res.metrics(spec.PerLayer)
	if o.trace && len(missing) > 0 {
		return fmt.Errorf("per-layer metrics declared but not measured: %v", missing)
	}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if v, ok := res.vals[m.Name]; ok {
				fmt.Fprintf(w, "metric %s %v %s\n", m.Name, v, m.Unit)
			}
		}
	}
	all := make(map[string]metricValue, len(endToEnd)+len(perLayer))
	for name, v := range endToEnd {
		all[name] = v
	}
	for name, v := range perLayer {
		all[name] = v
	}
	if o.record != "" {
		rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Env: env,
			Digests: res.digests, Checks: res.checks, Attempted: res.attempted, Failed: res.failed,
			Correct: res.correct(), Metrics: all}
		if err := appendRecord(o.record, rec); err != nil {
			return err
		}
	}
	line := resultLine{Correct: res.correct(), Metrics: endToEnd}
	if o.trace {
		line.Metrics = perLayer
	}
	line.Attempted, line.Failed = res.totals()
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func appendRecord(path string, rec record) (err error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(append(line, '\n'))
	return err
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}
