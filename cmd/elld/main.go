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
// rebalance counters of CLUSTER STATS.
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
// a dead node leaves the map without operator action. -gossip-interval
// 0 disables the detector (membership then changes only by operator
// command and anti-entropy sync).
//
// -peer-timeout bounds every node-to-node command (forwards,
// scatter-gather, gossip, bulk transfer) with an I/O deadline: a
// black-holed peer fails fast as a transport error and feeds the
// failure detector instead of hanging an operation forever.
// -xfer-batch and -xfer-window tune the streaming bulk-transfer
// transport that rebalance and sync move sketches over (keys per
// frame, unacked frames in flight; see the cluster package).
//
// -sync-digest-interval runs periodic digest anti-entropy on top of
// the map sync: each round the node exchanges per-shard content
// digests with its peers and re-ships only the keys that actually
// diverge — O(shards) messages on a converged cluster, instead of
// probing every key. 0 disables digest rounds (map-level sync still
// runs).
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
	addr := flag.String("addr", "127.0.0.1:7700", "listen address")
	p := flag.Int("p", 12, "sketch precision (2^p registers, ELL(2,20) configuration)")
	snapshot := flag.String("snapshot", "", "snapshot file: loaded at startup if present, written by the SAVE command and on shutdown")
	nodeID := flag.String("node-id", "", "cluster node ID; non-empty enables cluster mode")
	join := flag.String("join", "", "address of any member of an existing cluster to join (cluster mode)")
	replicas := flag.Int("replicas", 2, "number of nodes holding each key (cluster mode)")
	gossipInterval := flag.Duration("gossip-interval", time.Second, "failure-detector gossip period, 0 disables (cluster mode)")
	suspectAfter := flag.Int("suspect-after", 5, "gossip intervals a silent member survives before suspicion (cluster mode)")
	strictRouting := flag.Bool("strict-routing", false, "answer misrouted single-key data commands with -MOVED instead of forwarding (cluster mode, for smart clients)")
	peerTimeout := flag.Duration("peer-timeout", 5*time.Second, "I/O deadline per node-to-node command and transfer frame, 0 disables (cluster mode)")
	xferBatch := flag.Int("xfer-batch", 64, "keys per bulk-transfer frame (cluster mode)")
	xferWindow := flag.Int("xfer-window", 8, "unacked bulk-transfer frames in flight (cluster mode)")
	syncDigestInterval := flag.Duration("sync-digest-interval", 30*time.Second, "period of digest anti-entropy rounds repairing diverged replicas, 0 disables (cluster mode)")
	windowSlice := flag.Duration("window-slice", time.Second, "slice duration of WADD-created sliding-window keys")
	windowSlices := flag.Int("window-slices", 60, "number of slices in WADD-created rings (max window = slice x slices)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus-text /metrics on this address (empty disables)")
	defaultTTL := flag.Duration("default-ttl", 0, "expiry deadline stamped on every created key (0 disables); EXPIRE/PERSIST override per key")
	memHigh := flag.Int64("mem-high", 0, "resident sketch bytes that trigger cold-key eviction (0 disables)")
	memLow := flag.Int64("mem-low", 0, "resident sketch bytes eviction drains down to")
	sweepInterval := flag.Duration("sweep-interval", 10*time.Second, "period of the background expiry sweep and watermark check (0 disables)")
	flag.Parse()

	cfg := core.RecommendedML(*p)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	lc := lifecycleOpts{
		defaultTTL: *defaultTTL, memHigh: *memHigh, memLow: *memLow,
		sweepInterval: *sweepInterval,
	}
	if *nodeID != "" {
		runCluster(ctx, cfg, *addr, *snapshot, *nodeID, *join, *replicas, *gossipInterval, *suspectAfter, *windowSlice, *windowSlices, *metricsAddr, *strictRouting, *peerTimeout, *xferBatch, *xferWindow, *syncDigestInterval, lc)
		return
	}
	if *strictRouting {
		log.Fatal("-strict-routing requires cluster mode (-node-id)")
	}

	store, err := server.NewStore(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.SetWindowConfig(*windowSlice, *windowSlices); err != nil {
		log.Fatal(err)
	}
	lc.apply(ctx, store)
	loadSnapshot(store, *snapshot)
	srv := server.NewServer(store)
	srv.SetSnapshotPath(*snapshot)
	if err := srv.Listen(*addr); err != nil {
		log.Fatal(err)
	}
	if closeMetrics := startMetrics(*metricsAddr, srv.WriteMetrics); closeMetrics != nil {
		defer closeMetrics()
	}
	fmt.Printf("elld listening on %s (ELL t=2 d=20 p=%d, %d bytes per sketch)\n",
		srv.Addr(), *p, cfg.SizeBytes())

	<-ctx.Done()
	fmt.Println("shutting down")
	// Close first: it stops the listener and waits for in-flight
	// connections, so the final snapshot cannot miss a racing write.
	if err := srv.Close(); err != nil {
		log.Print(err)
	}
	saveSnapshot(store, *snapshot)
}

// lifecycleOpts bundles the keyspace-lifecycle flags: default TTL,
// memory watermarks, and the background sweep period.
type lifecycleOpts struct {
	defaultTTL      time.Duration
	memHigh, memLow int64
	sweepInterval   time.Duration
}

// apply configures the store's lifecycle knobs (before it serves) and,
// when a sweep interval is set, starts the background sweeper: each
// tick collects a sample of due keys per shard and, above the high
// watermark, evicts cold keys down to the low one. Lazy expiry on
// access works regardless — the sweep only bounds how long an untouched
// expired key can linger.
func (o lifecycleOpts) apply(ctx context.Context, store *server.Store) {
	if o.defaultTTL > 0 {
		store.SetDefaultTTL(o.defaultTTL)
	}
	if o.memHigh > 0 {
		store.SetMemoryWatermarks(o.memHigh, o.memLow)
	}
	if o.sweepInterval <= 0 {
		return
	}
	go func() {
		ticker := time.NewTicker(o.sweepInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				store.Sweep(128)
			}
		}
	}()
}

func runCluster(ctx context.Context, cfg core.Config, addr, snapshot, nodeID, join string, replicas int, gossipInterval time.Duration, suspectAfter int, windowSlice time.Duration, windowSlices int, metricsAddr string, strictRouting bool, peerTimeout time.Duration, xferBatch, xferWindow int, syncDigestInterval time.Duration, lc lifecycleOpts) {
	node, err := cluster.NewNode(nodeID, cfg, replicas)
	if err != nil {
		log.Fatal(err)
	}
	if err := node.Store().SetWindowConfig(windowSlice, windowSlices); err != nil {
		log.Fatal(err)
	}
	lc.apply(ctx, node.Store())
	node.SetGossipConfig(cluster.GossipConfig{SuspectAfter: suspectAfter})
	node.SetStrictRouting(strictRouting)
	node.SetPeerTimeout(peerTimeout)
	node.SetTransferConfig(cluster.TransferConfig{
		BatchKeys: xferBatch,
		Window:    xferWindow,
		Timeout:   peerTimeout,
	})
	loadSnapshot(node.Store(), snapshot)
	node.SetSnapshotPath(snapshot)
	if err := node.Start(addr); err != nil {
		log.Fatal(err)
	}
	if closeMetrics := startMetrics(metricsAddr, func(w io.Writer) {
		// One scrape covers both layers: per-verb server stats, then
		// the cluster counters (gossip, evictions, batching, rebalance).
		node.Server().WriteMetrics(w)
		node.WriteMetrics(w)
	}); closeMetrics != nil {
		defer closeMetrics()
	}
	fmt.Printf("elld node %s listening on %s (cluster mode, replicas=%d, p=%d)\n",
		nodeID, node.Addr(), replicas, cfg.P)
	switch {
	case join != "":
		if err := node.Join(join); err != nil {
			node.Close()
			log.Fatal(err)
		}
		m := node.Map()
		fmt.Printf("joined cluster via %s (map e%d v%d, %d nodes)\n", join, m.Epoch, m.Version, m.Len())
	case node.Map().Len() > 1:
		// The snapshot recorded a multi-node cluster: self-heal back
		// into it without any -join seed. Unreachable peers are not
		// fatal — the periodic sync keeps retrying.
		if err := node.Rejoin(); err != nil {
			log.Printf("rejoin (will keep syncing): %v", err)
		} else {
			m := node.Map()
			fmt.Printf("rejoined cluster from snapshot (map e%d v%d, %d nodes)\n", m.Epoch, m.Version, m.Len())
		}
	}

	// Anti-entropy: periodically pull peer maps and adopt/spread the
	// newest, so missed SETMAP broadcasts (partitions, restarts) heal
	// without operator action.
	go func() {
		ticker := time.NewTicker(5 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				node.Sync() // best-effort; unreachable peers retry next tick
			}
		}
	}()

	// Replica anti-entropy: each round exchanges per-shard content
	// digests with the peers and re-ships only keys that diverge, so a
	// converged cluster pays O(shards) messages, not O(keys).
	if syncDigestInterval > 0 {
		go func() {
			ticker := time.NewTicker(syncDigestInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := node.DigestSync(); err != nil {
						log.Printf("digest sync (will retry): %v", err)
					}
				}
			}
		}()
	}

	// Failure detection: each tick is one gossip round (heartbeat
	// exchange, suspicion, quorum-gated auto-LEAVE). The detector
	// itself is clockless — this ticker IS its clock, which is also
	// what lets the test harness drive it deterministically.
	if gossipInterval > 0 {
		go func() {
			ticker := time.NewTicker(gossipInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					for _, id := range node.Gossip() {
						log.Printf("gossip: auto-evicted unresponsive node %s", id)
					}
				}
			}
		}()
	}

	<-ctx.Done()
	fmt.Println("shutting down")
	// Close first so in-flight writes land before the final snapshot.
	if err := node.Close(); err != nil {
		log.Print(err)
	}
	saveSnapshot(node.Store(), snapshot)
}

// startMetrics serves Prometheus-text metrics at http://addr/metrics,
// rendered by write on every scrape. It returns a shutdown func, or nil
// when addr is empty (metrics disabled). A bind failure is fatal — an
// operator who asked for metrics should not silently fly blind.
func startMetrics(addr string, write func(io.Writer)) func() {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("metrics listener: %v", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		write(w)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Printf("metrics at http://%s/metrics\n", ln.Addr())
	return func() { srv.Close() }
}

// loadSnapshot restores store from path if it exists; a missing file is
// a fresh start, any other failure is fatal.
func loadSnapshot(store *server.Store, path string) {
	if path == "" {
		return
	}
	switch err := store.LoadFile(path); {
	case err == nil:
		fmt.Printf("loaded %d sketches from %s\n", store.Len(), path)
	case os.IsNotExist(err):
		fmt.Printf("snapshot %s not found, starting empty\n", path)
	default:
		log.Fatal(err)
	}
}

// saveSnapshot writes a final snapshot on shutdown so a restart loses
// nothing.
func saveSnapshot(store *server.Store, path string) {
	if path == "" {
		return
	}
	if err := store.SaveFile(path); err != nil {
		log.Printf("final snapshot: %v", err)
		return
	}
	fmt.Printf("saved %d sketches to %s\n", store.Len(), path)
}
