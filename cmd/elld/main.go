// Command elld serves ExaLogLog sketches over TCP with Redis-style
// PFADD / PFCOUNT / PFMERGE commands — the "approximate distinct counting
// as a data-store command" scenario of the paper's introduction — plus
// the sliding-window verbs WADD / WCOUNT / WINFO (port-scan/DDoS-style
// distinct counting over time windows, the introduction's other
// motivating workload).
//
// Usage:
//
//	elld [-addr 127.0.0.1:7700] [-p 12] [-snapshot file] \
//	     [-window-slice 1s] [-window-slices 60] [-metrics-addr 127.0.0.1:9100] \
//	     [-default-ttl 0] [-mem-high 0] [-mem-low 0] [-sweep-interval 10s]
//	elld -node-id n1 [-replicas 2] [-join host:port] \
//	     [-gossip-interval 1s] [-suspect-after 5] \
//	     [-strict-routing] [-peer-timeout 5s] \
//	     [-xfer-batch 64] [-xfer-window 8] \
//	     [-sync-digest-interval 30s]                 # cluster mode
//
// -metrics-addr serves Prometheus-text metrics at /metrics: per-verb
// call counts, error counts, bytes and latency histograms (see the
// STATS verb), plus — in cluster mode — the gossip/eviction/batching/
// transfer/digest-round counters of CLUSTER STATS.
//
// -window-slice and -window-slices set the ring geometry of keys
// created by WADD: windows are answerable up to slice·slices back, at
// slice-granular edges. Every node of one cluster must use the same
// geometry (like -p).
//
// With -node-id set, elld runs as a member of a sharded, replicated
// sketch cluster (see the cluster package): keys are routed to owner
// nodes by consistent hashing, counts scatter-gather serialized sketches,
// and -join adds this node to an existing cluster via any member.
//
// Cluster nodes run a gossip failure detector: every -gossip-interval
// the node exchanges heartbeat digests with a few peers, suspects any
// member silent for -suspect-after intervals, and — once a quorum of
// members agrees — evicts it with an epoch-fenced automatic LEAVE, so
// a dead node leaves the map without operator action. The same
// exchange carries the cluster map to a peer that missed a broadcast.
// -gossip-interval 0 disables both (membership then changes only by
// operator command, and maps heal on the digest round).
//
// -peer-timeout bounds every node-to-node command (forwards,
// scatter-gather, gossip, bulk transfer) with an I/O deadline: a
// black-holed peer fails fast as a transport error and feeds the
// failure detector instead of hanging an operation forever.
// -xfer-batch and -xfer-window tune the transfer pipeline every data
// movement rides — the digest round a membership change runs and the
// periodic one alike (keys per frame, frames per round trip; see the
// cluster package). A stream that fails is not retried: the next digest
// round ships what it did not.
//
// -sync-digest-interval is the anti-entropy period: each round the node
// hands keys it holds but does not own to their owners, exchanges
// per-shard content digests with its peers and re-ships only the keys
// that diverge — O(shards) messages on a converged cluster — and
// settles the map with any peer whose epoch differs. 0 disables the
// round (gossip still moves maps).
//
// Keyspace lifecycle: -default-ttl stamps every key created from then
// on with an absolute expiry deadline (creation + TTL); EXPIRE/PERSIST
// override it per key. Expired keys are collected lazily on access and
// by a background sweep every -sweep-interval (0 disables the sweep;
// lazy expiry still applies). -mem-high/-mem-low arm the memory
// watermark: when approximate resident sketch bytes exceed -mem-high,
// the sweep evicts the coldest keys until resident bytes drop to
// -mem-low. In cluster mode deadlines are replicated as absolute
// instants, so every replica expires a key at the same moment.
//
// -strict-routing makes the node answer misrouted single-key data
// commands with a -MOVED redirect instead of forwarding to the owners
// — the serving mode for smart clients (cluster.ClusterClient,
// ell-loader -single-hop) that hash keys locally and expect one-hop
// latency. Coordinator-style clients can keep using non-strict nodes
// of the same cluster; the flag is per node.
//
// On SIGINT/SIGTERM elld takes a final snapshot (when -snapshot is set)
// before closing the listener, so a restarted node loses nothing. The
// snapshot also records the cluster map, so a cluster node restarted
// with the same -snapshot rejoins its cluster automatically — no -join
// needed after the first start.
//
// Try it with netcat:
//
//	$ printf 'PFADD visits alice bob\nPFCOUNT visits\nQUIT\n' | nc 127.0.0.1 7700
//	:1
//	:2
//	+BYE
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"exaloglog/cluster"
	"exaloglog/internal/core"
	"exaloglog/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// options is every flag's value, plus where the process's output goes.
type options struct {
	addr, snapshot, metricsAddr string
	p                           int
	windowSlice                 time.Duration
	windowSlices                int
	defaultTTL, sweepInterval   time.Duration
	memHigh, memLow             int64

	// Cluster mode (nodeID non-empty).
	nodeID, join                                    string
	replicas, suspectAfter, xferBatch, xferWindow   int
	gossipInterval, syncDigestInterval, peerTimeout time.Duration
	strictRouting                                   bool

	stdout io.Writer
	log    *log.Logger
}

// run is main without the process: it parses args (everything after the
// program name), serves until ctx is cancelled and returns the exit
// code — 0 after a clean shutdown, 1 on a start-up failure, 2 on a
// usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o := options{stdout: stdout, log: log.New(stderr, "", log.LstdFlags)}
	fs := flag.NewFlagSet("elld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7700", "listen address")
	fs.IntVar(&o.p, "p", 12, "sketch precision (2^p registers, ELL(2,20) configuration)")
	fs.StringVar(&o.snapshot, "snapshot", "", "snapshot file: loaded at startup if present, written by the SAVE command and on shutdown")
	fs.StringVar(&o.nodeID, "node-id", "", "cluster node ID; non-empty enables cluster mode")
	fs.StringVar(&o.join, "join", "", "address of any member of an existing cluster to join (cluster mode)")
	fs.IntVar(&o.replicas, "replicas", 2, "number of nodes holding each key (cluster mode)")
	fs.DurationVar(&o.gossipInterval, "gossip-interval", time.Second, "failure-detector gossip period, 0 disables (cluster mode)")
	fs.IntVar(&o.suspectAfter, "suspect-after", 5, "gossip intervals a silent member survives before suspicion (cluster mode)")
	fs.BoolVar(&o.strictRouting, "strict-routing", false, "answer misrouted single-key data commands with -MOVED instead of forwarding (cluster mode, for smart clients)")
	fs.DurationVar(&o.peerTimeout, "peer-timeout", 5*time.Second, "I/O deadline per node-to-node command and transfer frame, 0 disables (cluster mode)")
	fs.IntVar(&o.xferBatch, "xfer-batch", 64, "keys per bulk-transfer frame (cluster mode)")
	fs.IntVar(&o.xferWindow, "xfer-window", 8, "transfer frames per round trip (cluster mode)")
	fs.DurationVar(&o.syncDigestInterval, "sync-digest-interval", 30*time.Second, "anti-entropy period: each round drains stray keys to their owners and repairs diverged replicas by digest, 0 disables (cluster mode)")
	fs.DurationVar(&o.windowSlice, "window-slice", time.Second, "slice duration of WADD-created sliding-window keys")
	fs.IntVar(&o.windowSlices, "window-slices", 60, "number of slices in WADD-created rings (max window = slice x slices)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus-text /metrics on this address (empty disables)")
	fs.DurationVar(&o.defaultTTL, "default-ttl", 0, "expiry deadline stamped on every created key (0 disables); EXPIRE/PERSIST override per key")
	fs.Int64Var(&o.memHigh, "mem-high", 0, "resident sketch bytes that trigger cold-key eviction (0 disables)")
	fs.Int64Var(&o.memLow, "mem-low", 0, "resident sketch bytes eviction drains down to")
	fs.DurationVar(&o.sweepInterval, "sweep-interval", 10*time.Second, "period of the background expiry sweep and watermark check (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2 // Parse has reported the error and the flag list
	}

	// The tickers stop when serving does, even if the caller's ctx lives on.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	serve := o.serveSingle
	if o.nodeID != "" {
		serve = o.serveCluster
	}
	if err := serve(ctx); err != nil {
		o.log.Print(err)
		return 1
	}
	return 0
}

// every calls fn each d until ctx is cancelled; d ≤ 0 never starts.
func every(ctx context.Context, d time.Duration, fn func()) {
	if d <= 0 {
		return
	}
	go func() {
		ticker := time.NewTicker(d)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
}

// prepare configures a store before it serves: ring geometry, the
// lifecycle knobs and the snapshot (a missing file is a fresh start).
// With a sweep interval it starts the background sweeper: each tick
// collects a sample of due keys per shard and, above the high
// watermark, evicts cold keys down to the low one. Lazy expiry on
// access works regardless — the sweep only bounds how long an untouched
// expired key can linger.
func (o options) prepare(ctx context.Context, store *server.Store) error {
	if err := store.SetWindowConfig(o.windowSlice, o.windowSlices); err != nil {
		return err
	}
	if o.defaultTTL > 0 {
		store.SetDefaultTTL(o.defaultTTL)
	}
	if o.memHigh > 0 {
		store.SetMemoryWatermarks(o.memHigh, o.memLow)
	}
	every(ctx, o.sweepInterval, func() { store.Sweep(128) })
	if o.snapshot == "" {
		return nil
	}
	switch err := store.LoadFile(o.snapshot); {
	case err == nil:
		fmt.Fprintf(o.stdout, "loaded %d sketches from %s\n", store.Len(), o.snapshot)
	case os.IsNotExist(err):
		fmt.Fprintf(o.stdout, "snapshot %s not found, starting empty\n", o.snapshot)
	default:
		return err
	}
	return nil
}

// finish waits for ctx to end, then closes the listener and writes the
// final snapshot so a restart loses nothing. Close first: it waits for
// in-flight connections, so the snapshot cannot miss a racing write.
func (o options) finish(ctx context.Context, listener io.Closer, store *server.Store) {
	<-ctx.Done()
	fmt.Fprintln(o.stdout, "shutting down")
	if err := listener.Close(); err != nil {
		o.log.Print(err)
	}
	if o.snapshot == "" {
		return
	}
	if err := store.SaveFile(o.snapshot); err != nil {
		o.log.Printf("final snapshot: %v", err)
		return
	}
	fmt.Fprintf(o.stdout, "saved %d sketches to %s\n", store.Len(), o.snapshot)
}

// serveSingle runs a standalone server until ctx is cancelled.
func (o options) serveSingle(ctx context.Context) error {
	if o.strictRouting {
		return errors.New("-strict-routing requires cluster mode (-node-id)")
	}
	cfg := core.RecommendedML(o.p)
	store, err := server.NewStore(cfg)
	if err != nil {
		return err
	}
	if err := o.prepare(ctx, store); err != nil {
		return err
	}
	srv := server.NewServer(store)
	srv.SetSnapshotPath(o.snapshot)
	if err := srv.Listen(o.addr); err != nil {
		return err
	}
	closeMetrics, err := o.startMetrics(srv.WriteMetrics)
	if err != nil {
		srv.Close()
		return err
	}
	defer closeMetrics()
	fmt.Fprintf(o.stdout, "elld listening on %s (ELL t=2 d=20 p=%d, %d bytes per sketch)\n",
		srv.Addr(), o.p, cfg.SizeBytes())
	o.finish(ctx, srv, store)
	return nil
}

// serveCluster runs a cluster node until ctx is cancelled.
func (o options) serveCluster(ctx context.Context) error {
	node, err := cluster.NewNode(o.nodeID, core.RecommendedML(o.p), o.replicas)
	if err != nil {
		return err
	}
	if err := o.prepare(ctx, node.Store()); err != nil {
		return err
	}
	node.SetGossipConfig(cluster.GossipConfig{SuspectAfter: o.suspectAfter})
	node.SetStrictRouting(o.strictRouting)
	node.SetPeerTimeout(o.peerTimeout)
	node.SetTransferConfig(cluster.TransferConfig{
		BatchKeys: o.xferBatch,
		Window:    o.xferWindow,
	})
	node.SetSnapshotPath(o.snapshot)
	if err := node.Start(o.addr); err != nil {
		return err
	}
	closeMetrics, err := o.startMetrics(func(w io.Writer) {
		// One scrape covers both layers: per-verb server stats, then
		// the cluster counters (gossip, evictions, batching, transfer).
		node.Server().WriteMetrics(w)
		node.WriteMetrics(w)
	})
	if err != nil {
		node.Close()
		return err
	}
	defer closeMetrics()
	fmt.Fprintf(o.stdout, "elld node %s listening on %s (cluster mode, replicas=%d, p=%d)\n",
		o.nodeID, node.Addr(), o.replicas, o.p)
	switch {
	case o.join != "":
		if err := node.Join(o.join); err != nil {
			node.Close()
			return err
		}
		m := node.Map()
		fmt.Fprintf(o.stdout, "joined cluster via %s (map e%d v%d, %d nodes)\n", o.join, m.Epoch, m.Version, m.Len())
	case node.Map().Len() > 1:
		// The snapshot recorded a multi-node cluster: self-heal back
		// into it without any -join seed. Unreachable peers are not
		// fatal — gossip and the digest round keep retrying.
		if err := node.Rejoin(); err != nil {
			o.log.Printf("rejoin (anti-entropy will keep trying): %v", err)
		} else {
			m := node.Map()
			fmt.Fprintf(o.stdout, "rejoined cluster from snapshot (map e%d v%d, %d nodes)\n", m.Epoch, m.Version, m.Len())
		}
	}

	// Anti-entropy, data: drain strays, exchange per-shard content
	// digests with the peers and re-ship only keys that diverge, so a
	// converged cluster pays O(shards) messages, not O(keys).
	every(ctx, o.syncDigestInterval, func() {
		if err := node.DigestSync(); err != nil {
			o.log.Printf("digest sync (will retry): %v", err)
		}
	})
	// Failure detection and anti-entropy, maps: each tick is one gossip
	// round (heartbeat exchange carrying the map to laggards, suspicion,
	// quorum-gated auto-LEAVE). The detector itself is clockless — this
	// ticker IS its clock, which is also what lets the test harness
	// drive it deterministically.
	every(ctx, o.gossipInterval, func() {
		for _, id := range node.Gossip() {
			o.log.Printf("gossip: auto-evicted unresponsive node %s", id)
		}
	})
	o.finish(ctx, node, node.Store())
	return nil
}

// startMetrics serves Prometheus-text metrics at
// http://<-metrics-addr>/metrics, rendered by write on every scrape,
// and returns its shutdown func (a no-op when the flag is empty:
// metrics disabled). A bind failure is an error — an operator who asked
// for metrics should not silently fly blind.
func (o options) startMetrics(write func(io.Writer)) (stop func(), err error) {
	if o.metricsAddr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", o.metricsAddr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		write(w)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Fprintf(o.stdout, "metrics at http://%s/metrics\n", ln.Addr())
	return func() { srv.Close() }, nil
}
