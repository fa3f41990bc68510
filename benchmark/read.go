package main

import (
	"fmt"
	"time"

	"exaloglog"
	"exaloglog/cluster"
	"exaloglog/internal/hashing"
	"exaloglog/server"
	"exaloglog/window"
)

// serveRead is interactive reads beside writes on a preloaded 3-node
// cluster: two closed-loop clients at depth 1, each with a ClusterClient
// for single-key operations (one hop to an owner) and a server.Client to a
// coordinator for the multi-key union. ML estimation, union merge, window
// merge and the blob gather dominate; the wire is a small fixed term.

const (
	readPlainKeys   = 1000
	readWindowKeys  = 50 // a 60-slice p=12 ring is 860 KB per replica
	readPreload     = 1000
	readSliceLoad   = 40 // elements per window slice
	readWindow      = 30 * time.Second
	readSampleEvery = 16
)

type serveRead struct {
	nodes      []*cluster.Node
	byID       map[string]*cluster.Node
	ccs        []*cluster.ClusterClient
	conns      []*server.Client
	shadow     *shadow
	scratch    []*scratch
	plain, win []string
	gens       []*readGen
	executed   []uint64
	trips      int64 // round trips attempted, warm-up included
	failed     int64

	secs    float64 // total length of the timed phases
	warm    bool
	ladders []*ladder
	rtt     [numReadClasses]samples // all timed slices pooled, for the tails
	pfadd   samples
	timed   clientWork // round trips of the timed slices
	proc    procUse
}

func (w *serveRead) name() string { return "serve-read" }

// preloadPlain and preloadSlice are the seeded contents set-up writes; the
// oracle regenerates them instead of keeping a million strings around.
func preloadPlain(seed uint64, key int) []string {
	return freshElements(newRNG(seed, "read-preload", key), readPreload)
}

func preloadSlice(seed uint64, key, slice int) []string {
	return freshElements(newRNG(seed, "read-preload-window", key*60+slice), readSliceLoad)
}

func sliceMillis(slice int) int64 { return clockBaseMillis + int64(slice)*1000 }

func (w *serveRead) setUp(c *runCtx, secs float64) error {
	w.plain, w.win = keyNames("p", readPlainKeys), keyNames("w", readWindowKeys)
	w.executed = make([]uint64, clients)
	w.secs = secs
	var err error
	if w.nodes, err = bootCluster(3); err != nil {
		return err
	}
	w.byID = make(map[string]*cluster.Node)
	for _, n := range w.nodes {
		w.byID[n.ID()] = n
	}
	if c.trace {
		if w.shadow, err = bootShadow(); err != nil {
			return err
		}
	}
	d := newDigester()
	for i, key := range w.plain {
		els := preloadPlain(c.seed, i)
		d.str(key)
		d.str(els...)
		if _, err := w.nodes[i%len(w.nodes)].Add(key, els...); err != nil {
			return err
		}
		if w.shadow != nil {
			if _, err := w.shadow.store.Add(key, els...); err != nil {
				return err
			}
		}
	}
	for i, key := range w.win {
		for s := 0; s < 60; s++ {
			els := preloadSlice(c.seed, i, s)
			d.str(key)
			d.str(els...)
			if _, err := w.nodes[i%len(w.nodes)].WindowAdd(key, sliceMillis(s), els...); err != nil {
				return err
			}
			if w.shadow != nil {
				if _, err := w.shadow.store.WindowAdd(key, time.UnixMilli(sliceMillis(s)), els...); err != nil {
					return err
				}
			}
		}
	}
	for cl := 0; cl < clients; cl++ {
		g := newReadGen(c.seed, cl, w.plain, w.win)
		for i := 0; i < digestOps; i++ {
			g.next().digest(d)
		}
		w.gens = append(w.gens, newReadGen(c.seed, cl, w.plain, w.win))
		cc, err := cluster.DialCluster(w.nodes[cl].Addr())
		if err != nil {
			return err
		}
		w.ccs = append(w.ccs, cc)
		conn, err := server.Dial(w.nodes[cl].Addr())
		if err != nil {
			return err
		}
		w.conns = append(w.conns, conn)
	}
	c.res.digests[w.name()] = d.sum()
	if c.trace {
		// The core rung estimates and merges values filled like the keys.
		for cl := 0; cl < clients; cl++ {
			s, err := newScratch()
			if err != nil {
				return err
			}
			for _, el := range preloadPlain(c.seed, cl) {
				s.sketch.AddString(el)
			}
			for sl := 0; sl < 60; sl++ {
				for _, el := range preloadSlice(c.seed, cl, sl) {
					s.ring.AddString(time.UnixMilli(sliceMillis(sl)), el)
				}
			}
			w.scratch = append(w.scratch, s)
		}
	}
	return nil
}

func (w *serveRead) tearDown() {
	for _, cc := range w.ccs {
		cc.Close()
	}
	for _, conn := range w.conns {
		_ = conn.Close()
	}
	w.shadow.close()
	closeNodes(w.nodes)
}

// readSegment is what one timed stretch of the closed loop produced.
type readSegment struct {
	work   clientWork              // round trips
	rtt    [numReadClasses]samples // microseconds; pfcount_cold is the PFCOUNT alone
	pfadd  samples                 // the PFADD half of pfcount_cold
	failed int64
}

func (w *serveRead) drive(d time.Duration, ladders []*ladder) (*readSegment, error) {
	seg := &readSegment{}
	perClient := make([]readSegment, clients)
	start := time.Now()
	err := runClients(func(cl int) error {
		my := &perClient[cl]
		gen, cc, conn := w.gens[cl], w.ccs[cl], w.conns[cl]
		deadline := start.Add(d)
		for n := 0; time.Now().Before(deadline); n++ {
			op := gen.next()
			w.executed[cl]++
			var err error
			trips := int64(1)
			t0 := time.Now()
			switch op.class {
			case pfcountCold:
				_, err = cc.Add(op.key, op.els[0])
				mid := time.Now()
				my.pfadd.add(float64(mid.Sub(t0).Nanoseconds()) / 1e3)
				if err != nil {
					my.failed++
				}
				trips, t0 = 2, mid
				_, err = cc.Count(op.key)
			case pfcountHot:
				_, err = cc.Count(op.key)
			case union8:
				_, err = conn.PFCount(op.keys...)
			case wcount:
				_, err = cc.WCount(op.key, readWindow)
			case wadd:
				_, err = cc.WAdd(op.key, op.ts, op.els[0], op.els[1])
			}
			t1 := time.Now()
			if err != nil {
				my.failed++
			}
			my.rtt[op.class].add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
			my.work.done(cl, trips, start, t1)
			if ladders != nil && n%traceSampling == 0 {
				if err := w.replay(ladders[cl], cl, op, t0, t1); err != nil {
					return fmt.Errorf("client %d: ladder: %w", cl, err)
				}
			}
		}
		return nil
	})
	for i := range perClient {
		for class := range seg.rtt {
			seg.rtt[class].merge(&perClient[i].rtt[class])
		}
		seg.pfadd.merge(&perClient[i].pfadd)
		seg.work.add(perClient[i].work)
		seg.failed += perClient[i].failed
	}
	w.trips += seg.work.ops()
	w.failed += seg.failed
	return seg, err
}

// replay takes one served operation down the ladder. For pfcount_cold the
// operation is the PFCOUNT; each rung first dirties the key, untimed, so
// the count it times is as cold as the one the client saw.
func (w *serveRead) replay(l *ladder, cl int, op readOp, t0, t1 time.Time) error {
	o := l.begin(readClassNames[op.class], 1)
	o.rung(rungClient, t0, t1)
	sc, store, s := w.shadow.conns[cl], w.shadow.store, w.scratch[cl]
	// The node the live operation ran on: the coordinator this client's
	// connection points at for the union, else the owner ClusterClient
	// routes the key to.
	node := w.nodes[cl]
	if op.class != union8 {
		node = w.byID[w.ccs[cl].Map().Owners(op.key)[0].ID]
	}
	key := []byte(op.key)
	els := [][]byte{[]byte(op.els[0]), []byte(op.els[1])}
	fresh := func() string { return fmt.Sprintf("%s-%d-%d", op.els[0], cl, o.id) }
	var err error
	var start time.Time

	// node
	start = time.Now()
	switch op.class {
	case pfcountCold, pfcountHot:
		_, err = node.Count(op.key)
	case union8:
		_, err = node.Count(op.keys...)
	case wcount:
		_, err = node.WindowCount(op.key, readWindow, 0)
	case wadd:
		_, err = node.WindowAdd(op.key, op.ts, op.els[0], op.els[1])
	}
	o.rung(rungNode, start, time.Now())
	if err != nil {
		return err
	}

	// wire
	if op.class == pfcountCold {
		if _, err := sc.PFAdd(op.key, fresh()+"w"); err != nil {
			return err
		}
	}
	start = time.Now()
	switch op.class {
	case pfcountCold, pfcountHot:
		_, err = sc.PFCount(op.key)
	case union8:
		_, err = sc.PFCount(op.keys...)
	case wcount:
		_, err = sc.WCount(op.key, readWindow)
	case wadd:
		_, err = sc.WAdd(op.key, op.ts, op.els[0], op.els[1])
	}
	o.rung(rungWire, start, time.Now())
	if err != nil {
		return err
	}

	// store
	if op.class == pfcountCold {
		if _, err := store.Add(op.key, fresh()+"s"); err != nil {
			return err
		}
	}
	start = time.Now()
	switch op.class {
	case pfcountCold, pfcountHot:
		_, err = store.Count(op.key)
	case union8:
		_, err = store.Count(op.keys...)
	case wcount:
		_, err = store.WindowCount(op.key, readWindow, time.Time{})
	case wadd:
		_, err = store.WindowAddBytes(key, op.ts, els)
	}
	o.rung(rungStore, start, time.Now())
	if err != nil {
		return err
	}

	// core
	start = time.Now()
	switch op.class {
	case pfcountCold, pfcountHot:
		s.fsink += s.sketch.Estimate()
	case union8:
		s.acc.Reset()
		for range op.keys {
			if err := s.acc.Merge(s.sketch); err != nil {
				return err
			}
		}
		s.fsink += s.acc.Estimate()
	case wcount:
		s.fsink += s.ring.Estimate(s.ring.Latest(), readWindow)
	case wadd:
		ts := time.UnixMilli(op.ts)
		s.ring.Add(ts, els[0])
		s.ring.Add(ts, els[1])
	}
	o.rung(rungCore, start, time.Now())

	// hashing: only writes hash anything
	if op.class == wadd {
		start = time.Now()
		s.sink ^= hashing.Wy64(els[0], 0) ^ hashing.Wy64(els[1], 0)
		o.rung(rungHash, start, time.Now())
	}
	o.end()
	return nil
}

// medianClasses are the classes whose median round trip is an end-to-end
// metric.
var medianClasses = map[readClass]string{
	pfcountCold: "pfcount_cold_p50_us", union8: "union8_p50_us", wcount: "wcount_p50_us",
}

func (w *serveRead) measure(c *runCtx, secs float64) error {
	if !w.warm {
		if _, err := w.drive(warmUp(w.secs), nil); err != nil {
			return err
		}
		w.warm = true
		if c.trace {
			w.ladders = newLadders()
		}
	}
	if c.trace {
		// The process counters are read around an untraced stretch, so they
		// describe the served operations and not the ladder's replays.
		before := readProc()
		base, err := w.drive(secondsToDuration(secs/4), nil)
		if err != nil {
			return err
		}
		w.proc.add(before, readProc(), base.work.ops())
	}
	seg, err := w.drive(secondsToDuration(secs), w.ladders)
	if err != nil {
		return err
	}
	w.timed.add(seg.work)
	for class := range seg.rtt {
		if name, ok := medianClasses[readClass(class)]; ok && seg.rtt[class].n() > 0 {
			c.res.observe(name, seg.rtt[class].p50())
		}
		w.rtt[class].merge(&seg.rtt[class])
	}
	w.pfadd.merge(&seg.pfadd)
	return nil
}

func (w *serveRead) finish(c *runCtx) error {
	res := c.res
	res.set("read_ops_per_s", w.timed.rate())
	for class := range w.rtt {
		s := &w.rtt[class]
		c.logf("serve-read: %-12s n=%-6d p50 %.0fus  p%.4g %.0fus", readClassNames[class], s.n(), s.p50(), tailPercentile(s.n()), s.tail())
	}
	res.ops(w.name(), w.trips, w.failed)
	c.recordProc(w.name(), w.proc)

	if c.trace {
		res.set("client.pfadd_rtt_p50_us", w.pfadd.p50())
		res.set("client.pfcount_cold_p99_us", w.rtt[pfcountCold].tail())
		res.set("client.pfcount_hot_p50_us", w.rtt[pfcountHot].p50())
		res.set("client.pfcount_hot_p99_us", w.rtt[pfcountHot].tail())
		res.set("client.union8_p99_us", w.rtt[union8].tail())
		res.set("client.wcount_p99_us", w.rtt[wcount].tail())
		for class := range w.rtt {
			res.set("client.samples."+readClassNames[class], float64(w.rtt[class].n()))
		}
		var moved, failovers uint64
		for _, cc := range w.ccs {
			st := cc.Stats()
			moved += st.Moved
			failovers += st.Failovers
		}
		res.set("client.redirects", float64(moved))
		res.set("client.failovers", float64(failovers))
		res.set("client.errors", float64(w.failed))
		hits, misses := w.shadow.store.CacheStats()
		res.set("store.estimate_cache_hit_share", float64(hits)/float64(hits+misses))

		lad := mergeLadders(w.ladders)
		bs := lad.budgets()
		printBudgets(c.log, w.name(), bs)
		res.set("budget.unattributed_us.read", bs[len(bs)-1].Unattributed)
		if err := lad.write(c.outDir, w.name(), c.seed); err != nil {
			return err
		}
	}
	// The oracle first: the layer measurements below write into the same
	// cluster, beyond what the reference is fed.
	if err := w.verify(c); err != nil {
		return err
	}
	if c.trace {
		return w.layers(c)
	}
	return nil
}

// verify holds the cluster to the CRDT oracle: reference values fed the
// preload and exactly the acknowledged writes must count identically.
func (w *serveRead) verify(c *runCtx) error {
	plainIdx := make(map[string]int)
	plainRef := make(map[string]*exaloglog.Sketch)
	for i := 0; i < len(w.plain); i += readSampleEvery {
		plainIdx[w.plain[i]] = i
	}
	hot := w.plain[len(w.plain)/2:][:8] // the union check's read-only keys
	for i, key := range hot {
		plainIdx[key] = len(w.plain)/2 + i
	}
	for key, i := range plainIdx {
		sk := exaloglog.New(precision)
		for _, el := range preloadPlain(c.seed, i) {
			sk.AddString(el)
		}
		plainRef[key] = sk
	}
	winRef := make(map[string]*window.Counter)
	for i := 0; i < len(w.win); i += 8 {
		ring, err := window.New(sketchConfig, time.Second, 60)
		if err != nil {
			return err
		}
		for s := 0; s < 60; s++ {
			for _, el := range preloadSlice(c.seed, i, s) {
				ring.AddString(time.UnixMilli(sliceMillis(s)), el)
			}
		}
		winRef[w.win[i]] = ring
	}
	for cl := 0; cl < clients; cl++ {
		g := newReadGen(c.seed, cl, w.plain, w.win)
		for i := uint64(0); i < w.executed[cl]; i++ {
			switch op := g.next(); op.class {
			case pfcountCold:
				if sk := plainRef[op.key]; sk != nil {
					sk.AddString(op.els[0])
				}
			case wadd:
				if ring := winRef[op.key]; ring != nil {
					ts := time.UnixMilli(op.ts)
					ring.AddString(ts, op.els[0])
					ring.AddString(ts, op.els[1])
				}
			}
		}
	}
	union := exaloglog.New(precision)
	for _, key := range hot {
		if err := union.Merge(plainRef[key]); err != nil {
			return err
		}
	}
	got, err := w.nodes[0].Count(hot...)
	if err != nil {
		return err
	}
	c.res.verify(w.name()+".oracle_union8", got == union.Estimate(),
		"8-key union: cluster %.3f, merged reference %.3f", got, union.Estimate())
	return verifyCounts(c, w.name(), w.nodes, plainRef, winRef)
}
