package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"exaloglog"
	"exaloglog/cluster"
	"exaloglog/server"
)

// manyKeys is operator work on a realistic, mostly-tiny keyspace: what the
// keys cost in memory, how long a snapshot and a membership change take,
// what a converged anti-entropy round costs. The request path does nothing
// here; the store's memory layout, compress, snapshot, transfer and
// digestsync do everything.

const (
	// manyKeysPerSecond sizes the keyspace: the run is made of whole
	// phases, not of a loop that can stop at a deadline, so -seconds buys
	// keys. 300 keys per second keeps the phases near the requested time.
	manyKeysPerSecond = 300
	// rebalanceCycles: rebalance_s is the time of five join+leave cycles;
	// each slice runs one.
	rebalanceCycles = passes
)

type manyKeys struct {
	nodes []*cluster.Node
	keys  []string

	heapPerKey float64 // live heap the loaded keyspace added, per key and replica
	path       string  // the snapshot file
	loaded     *server.Store
	fileBytes  int64
	cycles     int
	joining    time.Duration // over all cycles
	leaving    time.Duration
	resident0  transferCounters
	joiners    transferCounters // the joiners' own sends, read before each is closed
	repaired   uint64
	ops        int64
	proc       procUse
	lad        *ladder
}

func (w *manyKeys) name() string { return "many-keys" }

func (w *manyKeys) elements(seed uint64, i int) []string {
	return freshElements(newRNG(seed, "many-keys", i+1), manyKeysCardinality(i))
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (w *manyKeys) setUp(c *runCtx, secs float64) error {
	n := int(manyKeysPerSecond * secs)
	if n < 40 {
		n = 40
	}
	heap0 := liveHeap()
	w.keys = make([]string, n)
	var err error
	if w.nodes, err = bootCluster(2); err != nil {
		return err
	}
	d := newDigester()
	for i := range w.keys {
		w.keys[i] = fmt.Sprintf("mk%05d", i)
		els := w.elements(c.seed, i)
		d.str(w.keys[i])
		d.str(els...)
		if _, err := w.nodes[i%len(w.nodes)].Add(w.keys[i], els...); err != nil {
			return err
		}
	}
	c.res.digests[w.name()] = d.sum()
	// Memory is read here, while nothing else in the process allocates:
	// what the loaded keyspace holds live, per key and replica.
	w.heapPerKey = (float64(liveHeap()) - float64(heap0)) / float64(n*replicas)
	w.resident0 = w.transferCounters(nil)
	w.lad = newLadder(time.Now(), 0, 1)
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	w.path = filepath.Join(c.outDir, fmt.Sprintf("snapshot-%d.elss", os.Getpid()))
	return nil
}

func (w *manyKeys) tearDown() {
	closeNodes(w.nodes)
	if w.path != "" {
		_ = os.Remove(w.path) // absent if no slice ran
	}
}

// measure is one slice: one snapshot save+load, one join+leave cycle of a
// third node, one converged digest round per node. The keyspace, not secs,
// sizes them. snapshot_s is the median slice, rebalance_s the sum of the
// cycles.
func (w *manyKeys) measure(c *runCtx, _ float64) error {
	res := c.res
	before := readProc()

	// Snapshot: save one node, load it into a fresh store. Every timed
	// stretch here allocates tens of megabytes; collecting first (untimed)
	// starts each from the same heap, so the collector's share of the
	// stretch repeats instead of depending on what ran before.
	runtime.GC()
	start := time.Now()
	if err := w.nodes[0].Store().SaveFile(w.path); err != nil {
		return err
	}
	saved := time.Now()
	loaded, err := server.NewStore(sketchConfig)
	if err != nil {
		return err
	}
	if err := loaded.LoadFile(w.path); err != nil {
		return err
	}
	end := time.Now()
	w.lad.phase("many-keys/snapshot", start, end)
	res.observe("snapshot_s", end.Sub(start).Seconds())
	if c.trace {
		res.observe("snapshot.save_s", saved.Sub(start).Seconds())
		res.observe("snapshot.load_s", end.Sub(saved).Seconds())
	}
	w.loaded = loaded
	info, err := os.Stat(w.path)
	if err != nil {
		return err
	}
	w.fileBytes = info.Size()

	// Rebalance: a third node joins, takes its share, and leaves again.
	w.cycles++
	joiner, err := startNode(fmt.Sprintf("j%d", w.cycles))
	if err != nil {
		return err
	}
	runtime.GC()
	start = time.Now()
	if err := joiner.Join(w.nodes[0].Addr()); err != nil {
		_ = joiner.Close()
		return fmt.Errorf("cycle %d: %w", w.cycles, err)
	}
	joined := time.Now()
	if err := joiner.Leave(); err != nil {
		_ = joiner.Close()
		return fmt.Errorf("cycle %d: %w", w.cycles, err)
	}
	left := time.Now()
	w.lad.phase("many-keys/rebalance", start, left)
	w.joiners = w.joiners.plus(w.transferCounters(joiner))
	if err := joiner.Close(); err != nil {
		return err
	}
	w.joining += joined.Sub(start)
	w.leaving += left.Sub(joined)

	// Anti-entropy on a converged cluster: digests only, nothing to repair.
	start = time.Now()
	for _, node := range w.nodes {
		_, r0 := node.DigestSyncStats()
		t0 := time.Now()
		if err := node.DigestSync(); err != nil {
			return err
		}
		if c.trace {
			res.observe("digestsync.round_ms", float64(time.Since(t0).Microseconds())/1e3)
		}
		_, r1 := node.DigestSyncStats()
		w.repaired += r1 - r0
	}
	w.lad.phase("many-keys/digestsync", start, time.Now())

	ops := int64(2 + 2 + len(w.nodes))
	w.ops += ops
	w.proc.add(before, readProc(), ops)
	return nil
}

func (w *manyKeys) finish(c *runCtx) error {
	res := c.res
	n := len(w.keys)
	res.set("resident_bytes_per_key", w.heapPerKey)
	res.set("rebalance_s", (w.joining + w.leaving).Seconds())
	expected := w.expectedCounts(c.seed)

	bad, detail := 0, ""
	for i, key := range w.keys {
		got, err := w.loaded.Count(key)
		if err != nil {
			return err
		}
		if got != expected[i] {
			bad++
			detail = fmt.Sprintf("; %s: reloaded %.3f, reference %.3f", key, got, expected[i])
		}
	}
	res.verify(w.name()+".oracle_snapshot", bad == 0 && w.loaded.Len() == n,
		"%d of %d keys differ after save+load (%d keys loaded)%s", bad, n, w.loaded.Len(), detail)
	res.verify(w.name()+".converged", w.repaired == 0, "digest rounds repaired %d keys on a converged cluster", w.repaired)

	bad, detail = 0, ""
	for i, key := range w.keys {
		got, err := w.nodes[i%len(w.nodes)].Count(key)
		if err != nil {
			return err
		}
		if got != expected[i] {
			bad++
			detail = fmt.Sprintf("; %s: cluster %.3f, reference %.3f", key, got, expected[i])
		}
	}
	res.verify(w.name()+".oracle_after_leave", bad == 0, "%d of %d keys differ after the last of %d leaves%s", bad, n, w.cycles, detail)

	if c.trace {
		var resident int64
		for _, node := range w.nodes {
			_, _, b := node.Store().LifecycleStats()
			resident += b
		}
		res.set("store.resident_bytes_per_key", float64(resident)/float64(n*replicas))
		res.set("snapshot.bytes_per_key", float64(w.fileBytes)/float64(w.loaded.Len()))
		res.set("transfer.join_s", w.joining.Seconds())
		res.set("transfer.leave_s", w.leaving.Seconds())
		moved := w.transferCounters(nil).minus(w.resident0).plus(w.joiners)
		perPush := func(b uint64) float64 {
			if moved.pushes == 0 {
				return 0
			}
			return float64(b) / float64(moved.pushes)
		}
		res.set("transfer.pushes", float64(moved.pushes))
		res.set("transfer.frames", float64(moved.frames))
		res.set("transfer.wire_bytes_per_key", perPush(moved.wire))
		res.set("transfer.precompress_bytes_per_key", perPush(moved.precompress))
		res.set("transfer.frame_retries", float64(moved.retries))
		res.set("transfer.fallback_keys", float64(moved.fallbacks))
		res.set("digestsync.keys_repaired", float64(w.repaired))
	}
	res.ops(w.name(), w.ops+int64(3*n), 0) // + every key loaded once and read back twice
	c.recordProc(w.name(), w.proc)
	c.logf("many-keys: %d keys, snapshot %d bytes, %d join+leave cycles", n, w.fileBytes, w.cycles)
	if c.trace {
		return w.lad.write(c.outDir, w.name(), c.seed)
	}
	return nil
}

// expectedCounts is the oracle: every key's count from a reference sketch
// fed the same elements.
func (w *manyKeys) expectedCounts(seed uint64) []float64 {
	ref := exaloglog.New(precision)
	out := make([]float64, len(w.keys))
	for i := range w.keys {
		ref.Reset()
		for _, el := range w.elements(seed, i) {
			ref.AddString(el)
		}
		out[i] = ref.Estimate()
	}
	return out
}

// transferCounters is the sum of the cluster's bulk-transfer counters.
type transferCounters struct {
	pushes, frames, retries, fallbacks, wire, precompress uint64
}

// transferCounters sums over the resident nodes, or reads extra alone.
func (w *manyKeys) transferCounters(extra *cluster.Node) transferCounters {
	nodes := w.nodes
	if extra != nil {
		nodes = []*cluster.Node{extra}
	}
	var t transferCounters
	for _, node := range nodes {
		s := node.TransferStats()
		t.pushes += node.RebalancePushes()
		t.frames += s.FramesSent
		t.retries += s.FrameRetries
		t.fallbacks += s.FallbackKeys
		t.wire += s.BytesWire
		t.precompress += s.BytesPrecompress
	}
	return t
}

func (t transferCounters) plus(o transferCounters) transferCounters {
	return transferCounters{
		pushes: t.pushes + o.pushes, frames: t.frames + o.frames, retries: t.retries + o.retries,
		fallbacks: t.fallbacks + o.fallbacks, wire: t.wire + o.wire, precompress: t.precompress + o.precompress,
	}
}

func (t transferCounters) minus(o transferCounters) transferCounters {
	return transferCounters{
		pushes: t.pushes - o.pushes, frames: t.frames - o.frames, retries: t.retries - o.retries,
		fallbacks: t.fallbacks - o.fallbacks, wire: t.wire - o.wire, precompress: t.precompress - o.precompress,
	}
}
