package main

import (
	"fmt"
	"time"
)

// layers times the store, wire and node layers on their own, from outside,
// on the idle instances a traced serve-read run already holds: the shadow
// Store and standalone Server, and one cluster node called in process.
// These are the per-layer figures a change to one layer should move first.

// timeEach is timeOp for calls that need untimed preparation: it times
// each call of f alone, after prep, and returns the median in nanoseconds.
func timeEach(d time.Duration, prep, f func()) float64 {
	var ns []float64
	deadline := time.Now().Add(d)
	for len(ns) < 20 || time.Now().Before(deadline) {
		prep()
		t0 := time.Now()
		f()
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ns)
}

func (w *serveRead) layers(c *runCtx) error {
	res := c.res
	const slot = 100 * time.Millisecond // per measurement
	r := newRNG(c.seed, "layers", 0)
	const poolLen = 1 << 16
	pool := freshElements(r, poolLen) // a measurement wraps rarely, if at all
	poolBytes := make([][]byte, poolLen)
	for i, el := range pool {
		poolBytes[i] = []byte(el)
	}
	next := 0
	pair := func() (a, b int) { // indices of two elements not used before
		a, b = next%poolLen, (next+1)%poolLen
		next += 2
		return a, b
	}
	// firstErr keeps the first failure of a timed closure; the timing
	// helpers take plain funcs.
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	cold := w.plain[:len(w.plain)/2]
	hot := w.plain[len(w.plain)/2:]
	key := func(i int) string { return cold[i%len(cold)] }
	var sink float64

	// --- store ---
	store := w.shadow.store
	keyBytes := make([][]byte, len(cold))
	for i, k := range cold {
		keyBytes[i] = []byte(k)
	}
	winBytes := []byte(w.win[0])
	i := 0
	addOnce := func() {
		a, b := pair()
		_, err := store.AddBytes(keyBytes[i%len(keyBytes)], [][]byte{poolBytes[a], poolBytes[b]})
		note(err)
		i++
	}
	ns := timeOp(slot, 500, addOnce)
	res.set("store.add_ns", ns)
	storeAddUs := ns / 1e3
	res.set("store.add_allocs", allocsPerCall(2000, addOnce))
	ns = timeOp(slot, 500, func() {
		a, b := pair()
		_, err := store.WindowAddBytes(winBytes, logicalMillis(uint64(a)), [][]byte{poolBytes[a], poolBytes[b]})
		note(err)
	})
	res.set("store.wadd_ns", ns)
	res.set("store.count1_cold_us", timeEach(slot, addOnce, func() {
		v, err := store.Count(key(i - 1))
		note(err)
		sink += v
	})/1e3)
	ns = timeOp(slot, 500, func() {
		v, err := store.Count(hot[0])
		note(err)
		sink += v
	})
	res.set("store.count1_hot_ns", ns)
	ns = timeOp(slot, 5, func() {
		v, err := store.Count(hot[:8]...)
		note(err)
		sink += v
	})
	res.set("store.count8_us", ns/1e3)
	ns = timeOp(slot, 3, func() {
		v, err := store.WindowCount(w.win[1], readWindow, time.Time{})
		note(err)
		sink += v
	})
	res.set("store.wcount_us", ns/1e3)
	var blob []byte
	ns = timeOp(slot, 50, func() {
		var ok bool
		if blob, ok = store.Dump(hot[1]); !ok {
			note(fmt.Errorf("store: %s vanished", hot[1]))
		}
	})
	res.set("store.dump_us", ns/1e3)
	ns = timeOp(slot, 50, func() { note(store.MergeBlob(hot[2], blob)) })
	res.set("store.mergeblob_us", ns/1e3)

	// --- wire: the same commands through the standalone server ---
	conn := w.shadow.conns[0]
	ns = timeOp(slot, 50, func() {
		a, b := pair()
		_, err := conn.PFAdd(key(a), pool[a], pool[b])
		note(err)
	})
	res.set("wire.pfadd_rtt_us", ns/1e3)
	res.set("wire.self_us", ns/1e3-storeAddUs)
	wireAddUs := ns / 1e3
	ns = timeOp(slot, 5, func() {
		p := conn.Pipeline()
		for j := 0; j < writeDepth; j++ {
			a, b := pair()
			p.PFAdd(key(a), pool[a], pool[b])
		}
		_, err := p.Exec()
		note(err)
	})
	res.set("wire.pfadd_pipelined_ns", ns/writeDepth)
	ns = timeOp(slot, 50, func() {
		_, err := conn.PFCount(hot[0])
		note(err)
	})
	res.set("wire.pfcount_rtt_us", ns/1e3)
	stats := w.shadow.srv.Stats()
	if v := stats.Verb("PFADD"); v != nil && v.Calls() > 0 {
		in, out := v.Bytes()
		res.set("wire.bytes_in_per_cmd", float64(in)/float64(v.Calls()))
		res.set("wire.bytes_out_per_cmd", float64(out)/float64(v.Calls()))
	}
	var wireErrs uint64
	for _, verb := range []string{"PFADD", "PFCOUNT", "WADD", "WCOUNT"} {
		if v := stats.Verb(verb); v != nil {
			wireErrs += v.Errs()
		}
	}
	res.set("wire.errors", float64(wireErrs))

	// --- node: the cluster's coordinator called in process ---
	node := w.nodes[0]
	nodeAdd := func() {
		a, b := pair()
		_, err := node.Add(key(a), pool[a], pool[b])
		note(err)
	}
	ns = timeOp(slot, 20, nodeAdd)
	res.set("node.add_us", ns/1e3)
	res.set("node.add_self_us", ns/1e3-wireAddUs)
	res.set("node.add_allocs", allocsPerCall(500, nodeAdd))
	ns = timeOp(slot, 20, func() {
		a, b := pair()
		_, err := node.WindowAdd(w.win[a%len(w.win)], logicalMillis(uint64(a)), pool[a], pool[b])
		note(err)
	})
	res.set("node.wadd_us", ns/1e3)
	j := 0
	ns = timeOp(slot, 10, func() {
		v, err := node.Count(hot[j%len(hot)])
		note(err)
		sink += v
		j++
	})
	res.set("node.count1_us", ns/1e3)
	ns = timeOp(slot, 3, func() {
		v, err := node.Count(hot[j%(len(hot)-8):][:8]...)
		note(err)
		sink += v
		j++
	})
	res.set("node.count8_us", ns/1e3)
	ns = timeOp(slot, 2, func() {
		v, err := node.WindowCount(w.win[j%len(w.win)], readWindow, 0)
		note(err)
		sink += v
		j++
	})
	res.set("node.wcount_us", ns/1e3)
	_ = sink
	return firstErr
}
