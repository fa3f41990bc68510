// Command ell-loader drives a configurable load mix against a sketch
// cluster (or a single elld) and reports achieved throughput and
// client-observed latency percentiles as JSON. The repository's
// benchmark (benchmark/) runs closed-loop against an in-process
// cluster; this tool is for the one thing it does not do — open-loop,
// QPS-paced load against a cluster that is already running somewhere.
//
// Target selection: -addrs takes a comma-separated list of running
// nodes (connections round-robin across them), or -self N spins up an
// N-node in-process cluster first — the self-contained smoke mode.
//
// Workload shape: -conns pipelined connections, each sending batches of
// -depth commands drawn from the -mix weights (pfadd/pfcount/wadd/
// wcount) over -keys keys picked by -dist (zipf or uniform). -qps caps
// total throughput (0 = max). The first -warmup of the run is driven
// but not measured.
//
// Routing: by default each connection talks to one node, which
// forwards on the client's behalf (coordinator mode). -single-hop
// instead drives cluster.ClusterClient batches — keys are hashed
// locally and every command goes straight to an owner, the smart-
// client path. With -self the nodes then run strict routing, so the
// measured path is honest single-hop (a misroute would bounce, not
// silently forward). The JSON result records the route.
//
// TTL churn: -ttl arms an expiry deadline on every key a pfadd
// touches — the EXPIRE rides in the same pipeline batch — so a long
// run continuously creates and expires keys, the workload that
// exercises lazy expiry, the background sweep and the memory
// watermark under load (pair with elld -default-ttl / -mem-high).
//
//	ell-loader -self 3 -conns 4 -depth 32 -duration 10s -mix pfadd=8,pfcount=1,wadd=1 -dist zipf
//	ell-loader -self 3 -single-hop -conns 4 -depth 32 -duration 10s
//	ell-loader -self 3 -ttl 2s -duration 30s -mix pfadd=4,pfcount=1
//	ell-loader -addrs 127.0.0.1:7700,127.0.0.1:7701 -qps 5000 -out load.json
//
// Latency is observed per pipeline batch round trip and attributed to
// every command in the batch — what a caller awaiting its own reply
// experiences. Errors never abort the run; they are counted per verb.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"exaloglog/cluster"
	"exaloglog/internal/core"
	"exaloglog/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args (everything after the
// program name), drives the load and writes the JSON result to -out or
// stdout. It returns the exit code — 0 on success, 1 when the run could not
// be set up or its result not written, 2 on a usage error — with the reason
// on stderr. Command errors during the load are counted, not fatal.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ell-loader", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addrs := fs.String("addrs", "", "comma-separated node addresses to load (alternative to -self)")
	self := fs.Int("self", 0, "spin up an in-process cluster of this many nodes instead of -addrs")
	replicas := fs.Int("replicas", 2, "replica factor of the -self cluster")
	p := fs.Int("p", 12, "sketch precision of the -self cluster")
	conns := fs.Int("conns", 4, "concurrent pipelined connections")
	depth := fs.Int("depth", 32, "commands per pipeline batch")
	duration := fs.Duration("duration", 10*time.Second, "measured load duration")
	warmup := fs.Duration("warmup", time.Second, "unmeasured warmup before the clock starts")
	keys := fs.Int("keys", 1000, "size of the key space")
	keyPrefix := fs.String("key-prefix", "lk", "key name prefix")
	dist := fs.String("dist", "zipf", "key distribution: zipf or uniform")
	zipfS := fs.Float64("zipf-s", 1.1, "zipf s parameter (>1; larger = more skew)")
	zipfV := fs.Float64("zipf-v", 1, "zipf v parameter (>=1)")
	mix := fs.String("mix", "pfadd=8,pfcount=1,wadd=1", "verb mix as verb=weight[,verb=weight...]; verbs: pfadd, pfcount, wadd, wcount")
	qps := fs.Float64("qps", 0, "target total commands/second (0 = max throughput)")
	elements := fs.Int("elements", 2, "elements per pfadd/wadd command")
	seed := fs.Int64("seed", 1, "base RNG seed (per-connection streams derive from it)")
	singleHop := fs.Bool("single-hop", false, "route each command straight to an owner via the smart client (with -self, nodes run strict routing)")
	ttl := fs.Duration("ttl", 0, "churn mode: arm this expiry TTL on every pfadd'd key, in the same batch (0 disables)")
	out := fs.String("out", "", "write the JSON result here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2 // Parse has reported the error and the flag list
	}
	exit := func(code int, err error) int {
		fmt.Fprintln(stderr, "ell-loader:", err)
		return code
	}

	specs, err := parseMix(*mix)
	if err != nil {
		return exit(2, err)
	}
	if *conns < 1 || *depth < 1 || *keys < 1 || *elements < 1 {
		return exit(2, errors.New("-conns, -depth, -keys and -elements must be >= 1"))
	}
	if *dist != "zipf" && *dist != "uniform" {
		return exit(2, fmt.Errorf("unknown -dist %q (want zipf or uniform)", *dist))
	}

	var targets []string
	if *self > 0 {
		nodes, stop, err := startSelfCluster(*self, *replicas, *p, *singleHop, stderr)
		if err != nil {
			return exit(1, err)
		}
		defer stop()
		targets = nodes
	} else {
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				targets = append(targets, a)
			}
		}
	}
	if len(targets) == 0 {
		return exit(2, errors.New("no targets: set -addrs or -self"))
	}

	cfg := workerConfig{
		specs: specs, depth: *depth, keys: *keys, keyPrefix: *keyPrefix,
		dist: *dist, zipfS: *zipfS, zipfV: *zipfV, elements: *elements,
		singleHop: *singleHop, ttl: *ttl,
	}
	if *qps > 0 {
		// Per-connection pacing: each connection owns an equal share of
		// the target and spaces its batches accordingly.
		cfg.batchEvery = time.Duration(float64(*depth) / (*qps / float64(*conns)) * float64(time.Second))
	}

	warmupEnd := time.Now().Add(*warmup)
	end := warmupEnd.Add(*duration)
	stats := make([]*workerStats, *conns)
	var wg sync.WaitGroup
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = runWorker(targets, i, *seed+int64(i)*104729, cfg, warmupEnd, end)
		}(i)
	}
	wg.Wait()

	res := aggregate(stats, specs)
	res.Addrs, res.Conns, res.Depth = targets, *conns, *depth
	res.Dist, res.Keys, res.Mix, res.Seed = *dist, *keys, *mix, *seed
	res.Route = "coordinator"
	if *singleHop {
		res.Route = "single-hop"
	}
	res.TargetQPS, res.DurationSec, res.WarmupSec = *qps, duration.Seconds(), warmup.Seconds()
	if duration.Seconds() > 0 {
		res.AchievedQPS = float64(res.Ops) / duration.Seconds()
	}

	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return exit(1, err)
	}
	doc = append(doc, '\n')
	if *out != "" {
		err = os.WriteFile(*out, doc, 0o644)
	} else {
		_, err = stdout.Write(doc)
	}
	if err != nil {
		return exit(1, err)
	}
	fmt.Fprintf(stderr, "ell-loader: %s route: %d ops in %v: %.0f cmd/s, p50=%dµs p99=%dµs max=%dµs, %d errors\n",
		res.Route, res.Ops, *duration, res.AchievedQPS, res.LatencyUS.P50, res.LatencyUS.P99, res.LatencyUS.Max, res.Errors)
	return 0
}

// verbSpec is one weighted entry of the -mix.
type verbSpec struct {
	name   string
	weight int
}

// parseMix parses "pfadd=8,pfcount=1" into weighted verb specs.
func parseMix(s string) ([]verbSpec, error) {
	var specs []verbSpec
	for _, part := range strings.Split(s, ",") {
		name, ws, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want verb=weight)", part)
		}
		w, err := strconv.Atoi(ws)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -mix weight in %q", part)
		}
		name = strings.ToLower(name)
		switch name {
		case "pfadd", "pfcount", "wadd", "wcount":
		default:
			return nil, fmt.Errorf("unknown -mix verb %q", name)
		}
		specs = append(specs, verbSpec{name, w})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty -mix")
	}
	return specs, nil
}

// workerConfig is the per-connection slice of the workload shape.
type workerConfig struct {
	specs        []verbSpec
	depth        int
	keys         int
	keyPrefix    string
	dist         string
	zipfS, zipfV float64
	elements     int
	singleHop    bool          // route via cluster.ClusterClient instead of one coordinator
	ttl          time.Duration // >0: churn mode, EXPIRE follows every pfadd in-batch
	batchEvery   time.Duration // 0: no pacing (max throughput)
}

// opBatch is the slice of batching API the workload needs, satisfied by
// both a coordinator pipeline and a smart-client batch so runWorker is
// route-agnostic.
type opBatch interface {
	PFAdd(key string, elements ...string)
	PFCount(key string)
	WAdd(key string, tsMillis int64, elements ...string)
	WCount(key string, win time.Duration)
	Expire(key string, ttl time.Duration)
	Exec() ([]server.Result, error)
}

// pipeBatch adapts server.Pipeline to opBatch: the pipeline's PFCount
// is variadic (the server verb takes several keys), the workload always
// counts one.
type pipeBatch struct{ *server.Pipeline }

func (p pipeBatch) PFCount(key string) { p.Pipeline.PFCount(key) }

// driver owns one worker's connection state: hand out batches, drop the
// connection after a transport failure so the next batch() redials.
type driver interface {
	batch() (opBatch, error)
	fail()
	close()
}

// coordDriver is the classic route: one pipelined connection to one
// node, which forwards to owners on the client's behalf.
type coordDriver struct {
	addr string
	c    *server.Client
}

func (d *coordDriver) batch() (opBatch, error) {
	if d.c == nil {
		c, err := server.Dial(d.addr)
		if err != nil {
			return nil, err
		}
		d.c = c
	}
	return pipeBatch{d.c.Pipeline()}, nil
}

func (d *coordDriver) fail() { d.close(); d.c = nil }

func (d *coordDriver) close() {
	if d.c != nil {
		d.c.Close()
	}
}

// singleHopDriver is the smart-client route: keys hashed locally,
// commands sent straight to an owner over per-node connections.
type singleHopDriver struct {
	targets []string
	cc      *cluster.ClusterClient
}

func (d *singleHopDriver) batch() (opBatch, error) {
	if d.cc == nil {
		cc, err := cluster.DialCluster(d.targets...)
		if err != nil {
			return nil, err
		}
		d.cc = cc
	}
	return d.cc.Batch(), nil
}

func (d *singleHopDriver) fail() { d.close(); d.cc = nil }

func (d *singleHopDriver) close() {
	if d.cc != nil {
		d.cc.Close()
	}
}

// workerStats is one connection's measured outcome. The histogram is
// the server package's LatencyHist, reused client-side.
type workerStats struct {
	hist     server.LatencyHist
	ops      uint64
	errs     uint64
	verbOps  []uint64 // indexed like cfg.specs
	verbErrs []uint64
}

// runWorker drives one connection's worth of load until end, recording
// only after warmupEnd. Transport errors redial and keep going — the
// run measures the cluster, it must not die with it. Coordinator mode
// pins the worker to targets[idx%len]; single-hop mode routes every
// command itself from the full target list.
func runWorker(targets []string, idx int, seed int64, cfg workerConfig, warmupEnd, end time.Time) *workerStats {
	st := &workerStats{
		verbOps:  make([]uint64, len(cfg.specs)),
		verbErrs: make([]uint64, len(cfg.specs)),
	}
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if cfg.dist == "zipf" {
		zipf = rand.NewZipf(rng, cfg.zipfS, cfg.zipfV, uint64(cfg.keys-1))
	}
	totalWeight := 0
	for _, sp := range cfg.specs {
		totalWeight += sp.weight
	}
	pickVerb := func() int {
		r := rng.Intn(totalWeight)
		for i, sp := range cfg.specs {
			if r -= sp.weight; r < 0 {
				return i
			}
		}
		return len(cfg.specs) - 1
	}
	pickKey := func() string {
		if zipf != nil {
			return cfg.keyPrefix + strconv.FormatUint(zipf.Uint64(), 10)
		}
		return cfg.keyPrefix + strconv.Itoa(rng.Intn(cfg.keys))
	}
	elems := make([]string, cfg.elements)
	elemSeq := 0
	fillElems := func() {
		for i := range elems {
			elemSeq++
			elems[i] = "e" + strconv.FormatInt(seed, 36) + "-" + strconv.Itoa(elemSeq)
		}
	}

	var d driver
	if cfg.singleHop {
		d = &singleHopDriver{targets: targets}
	} else {
		d = &coordDriver{addr: targets[idx%len(targets)]}
	}
	defer d.close()
	// slots maps each queued command (and so each result) back to its
	// mix verb; churn mode appends an extra EXPIRE slot per pfadd.
	slots := make([]int, 0, cfg.depth*2)
	next := time.Now()
	for time.Now().Before(end) {
		pl, err := d.batch()
		if err != nil {
			st.errs++
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if cfg.batchEvery > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(cfg.batchEvery)
		}
		slots = slots[:0]
		for j := 0; j < cfg.depth; j++ {
			vi := pickVerb()
			slots = append(slots, vi)
			key := pickKey()
			switch cfg.specs[vi].name {
			case "pfadd":
				fillElems()
				pl.PFAdd(key, elems...)
				if cfg.ttl > 0 {
					// Churn: the key expires cfg.ttl after this batch
					// lands, continuously recycling the keyspace.
					pl.Expire(key, cfg.ttl)
					slots = append(slots, vi)
				}
			case "pfcount":
				pl.PFCount(key)
			case "wadd":
				fillElems()
				pl.WAdd("w"+key, time.Now().UnixMilli(), elems...)
			case "wcount":
				pl.WCount("w"+key, 30*time.Second)
			}
		}
		t0 := time.Now()
		results, err := pl.Exec()
		lat := time.Since(t0)
		measured := t0.After(warmupEnd)
		if err != nil {
			// Transport failure: the whole batch is lost; redial.
			if measured {
				st.errs++
			}
			d.fail()
			continue
		}
		if !measured {
			continue
		}
		for j, r := range results {
			st.hist.Observe(lat)
			st.ops++
			st.verbOps[slots[j]]++
			if r.Err != nil {
				st.errs++
				st.verbErrs[slots[j]]++
			}
		}
	}
	return st
}

// latency is a set of client-observed latency percentiles in
// microseconds. For pipelined workloads the unit observed is one
// pipeline batch round trip, attributed to every command in the batch
// — what a caller awaiting its own reply actually experiences.
type latency struct {
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

// verbResult is the per-verb slice of the load outcome.
type verbResult struct {
	Ops    uint64 `json:"ops"`
	Errors uint64 `json:"errors,omitempty"`
}

// result is one complete loader run — the JSON document -out writes:
// the configuration that produced it (so a saved file stays
// self-describing) and the measured outcome.
type result struct {
	Tool  string   `json:"tool"` // "ell-loader"
	Addrs []string `json:"addrs"`
	Conns int      `json:"conns"`
	Depth int      `json:"depth"` // pipeline depth per connection
	Dist  string   `json:"dist"`  // "zipf" or "uniform"
	Keys  int      `json:"keys"`
	Mix   string   `json:"mix"` // e.g. "pfadd=8,pfcount=1,wadd=1"
	Seed  int64    `json:"seed"`
	Route string   `json:"route,omitempty"` // "coordinator" or "single-hop"

	TargetQPS   float64 `json:"target_qps,omitempty"` // 0: max throughput
	DurationSec float64 `json:"duration_sec"`
	WarmupSec   float64 `json:"warmup_sec"`

	Ops         uint64                `json:"ops"`
	Errors      uint64                `json:"errors"`
	AchievedQPS float64               `json:"achieved_qps"`
	LatencyUS   latency               `json:"latency_us"`
	PerVerb     map[string]verbResult `json:"per_verb,omitempty"`
}

// aggregate folds the per-connection stats into one result.
func aggregate(stats []*workerStats, specs []verbSpec) *result {
	var hist server.LatencyHist
	res := &result{Tool: "ell-loader", PerVerb: make(map[string]verbResult)}
	for _, st := range stats {
		if st == nil {
			continue
		}
		hist.Merge(&st.hist)
		res.Ops += st.ops
		res.Errors += st.errs
		for i, sp := range specs {
			v := res.PerVerb[sp.name]
			v.Ops += st.verbOps[i]
			v.Errors += st.verbErrs[i]
			res.PerVerb[sp.name] = v
		}
	}
	res.LatencyUS = latency{
		P50: hist.Quantile(0.50).Microseconds(),
		P90: hist.Quantile(0.90).Microseconds(),
		P99: hist.Quantile(0.99).Microseconds(),
		Max: hist.Max().Microseconds(),
	}
	return res
}

// startSelfCluster boots an n-node in-process cluster and returns its
// addresses plus a shutdown func — the zero-setup mode for smoke tests.
// With strict set, nodes bounce misrouted data commands with -MOVED so
// a single-hop run measures genuine owner-direct latency.
func startSelfCluster(n, replicas, p int, strict bool, stderr io.Writer) ([]string, func(), error) {
	cfg := core.RecommendedML(p)
	if replicas > n {
		replicas = n
	}
	var nodes []*cluster.Node
	stop := func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}
	for i := 0; i < n; i++ {
		nd, err := cluster.NewNode("ld"+strconv.Itoa(i), cfg, replicas)
		if err != nil {
			stop()
			return nil, nil, err
		}
		nd.SetStrictRouting(strict)
		if err := nd.Start("127.0.0.1:0"); err != nil {
			stop()
			return nil, nil, err
		}
		nodes = append(nodes, nd)
		if i > 0 {
			if err := nd.Join(nodes[0].Addr()); err != nil {
				stop()
				return nil, nil, err
			}
		}
	}
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.Addr()
	}
	fmt.Fprintf(stderr, "ell-loader: self-cluster of %d nodes (replicas=%d) at %s\n",
		n, replicas, strings.Join(addrs, " "))
	return addrs, stop, nil
}
