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

// serveWrite is ingestion through the coordinator route: two closed-loop
// clients, each pipelining 32 commands at a time down one connection to its
// own node of a 3-node cluster, PFADD 8 : WADD 2. Estimation does nothing
// here; wire parse, dispatch, the store add, the per-peer batcher and the
// peer hop do everything.

const (
	writeDepth      = 32
	writePlainKeys  = 1000
	writeWindowKeys = 64 // a 60-slice p=12 ring is 860 KB per replica
)

type serveWrite struct {
	nodes      []*cluster.Node
	conns      []*server.Client
	shadow     *shadow
	plain, win []string
	scratch    []*scratch
	gens       []*writeGen
	executed   []uint64 // commands acknowledged per client, warm-up included
	failed     int64

	secs     float64 // total length of the timed phases
	warm     bool
	ladders  []*ladder
	rtt      samples    // per batch, microseconds, all timed slices
	timed    clientWork // the timed slices
	untraced clientWork // the untraced stretches of a traced run
	groups0  uint64     // batcher counters when the first timed slice began
	batches0 uint64
	proc     procUse
}

func (w *serveWrite) name() string { return "serve-write" }

func (w *serveWrite) setUp(c *runCtx, secs float64) error {
	w.plain, w.win = keyNames("p", writePlainKeys), keyNames("w", writeWindowKeys)
	d := newDigester()
	for cl := 0; cl < clients; cl++ {
		g := newWriteGen(c.seed, cl, w.plain, w.win)
		for i := 0; i < digestOps; i++ {
			g.next().digest(d)
		}
		w.gens = append(w.gens, newWriteGen(c.seed, cl, w.plain, w.win))
	}
	c.res.digests[w.name()] = d.sum()
	w.executed = make([]uint64, clients)
	w.secs = secs

	var err error
	if w.nodes, err = bootCluster(3); err != nil {
		return err
	}
	for cl := 0; cl < clients; cl++ {
		conn, err := server.Dial(w.nodes[cl].Addr())
		if err != nil {
			return err
		}
		w.conns = append(w.conns, conn)
	}
	if c.trace {
		if w.shadow, err = bootShadow(); err != nil {
			return err
		}
	}
	// Create every key once, here and on the shadow: a key's first write
	// allocates its registers (860 KB for a window ring), and that belongs
	// to set-up, not to the steady-state ingestion the timed phase is about.
	for i, key := range w.plain {
		if _, err := w.nodes[i%len(w.nodes)].Add(key, touchElement); err != nil {
			return err
		}
		if w.shadow != nil {
			if _, err := w.shadow.store.Add(key, touchElement); err != nil {
				return err
			}
		}
	}
	for i, key := range w.win {
		if _, err := w.nodes[i%len(w.nodes)].WindowAdd(key, clockBaseMillis, touchElement); err != nil {
			return err
		}
		if w.shadow != nil {
			if _, err := w.shadow.store.WindowAdd(key, time.UnixMilli(clockBaseMillis), touchElement); err != nil {
				return err
			}
		}
	}
	if c.trace {
		for cl := 0; cl < clients; cl++ {
			s, err := newScratch()
			if err != nil {
				return err
			}
			w.scratch = append(w.scratch, s)
		}
	}
	return nil
}

// touchElement is the one element set-up writes into every key.
const touchElement = "touch"

func (w *serveWrite) tearDown() {
	for _, conn := range w.conns {
		_ = conn.Close()
	}
	w.shadow.close()
	closeNodes(w.nodes)
}

// writeSegment is what one timed stretch of the closed loop produced.
type writeSegment struct {
	work   clientWork
	rtt    samples // per batch, microseconds
	failed int64
}

// drive runs both clients for d. With ladders, every traceSampling-th
// batch is replayed down the ladder after it was served.
func (w *serveWrite) drive(d time.Duration, ladders []*ladder) (*writeSegment, error) {
	seg := &writeSegment{}
	start := time.Now()
	perClient := make([]writeSegment, clients)
	err := runClients(func(cl int) error {
		my := &perClient[cl]
		gen, conn := w.gens[cl], w.conns[cl]
		ops := make([]writeOp, writeDepth)
		deadline := start.Add(d)
		for batch := 0; time.Now().Before(deadline); batch++ {
			p := conn.Pipeline()
			for i := range ops {
				ops[i] = gen.next()
				if ops[i].window {
					p.WAdd(ops[i].key, ops[i].ts, ops[i].els[0], ops[i].els[1])
				} else {
					p.PFAdd(ops[i].key, ops[i].els[0], ops[i].els[1])
				}
			}
			t0 := time.Now()
			results, err := p.Exec()
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("client %d: %w", cl, err)
			}
			my.rtt.add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
			my.work.done(cl, writeDepth, start, t1)
			my.failed += resultErrors(results)
			w.executed[cl] += writeDepth
			if ladders != nil && batch%traceSampling == 0 {
				if err := w.replay(ladders[cl], cl, ops, t0, t1); err != nil {
					return err
				}
			}
		}
		return nil
	})
	for i := range perClient {
		seg.rtt.merge(&perClient[i].rtt)
		seg.work.add(perClient[i].work)
		seg.failed += perClient[i].failed
	}
	w.failed += seg.failed
	return seg, err
}

// replay takes one served batch down the ladder.
func (w *serveWrite) replay(l *ladder, cl int, ops []writeOp, t0, t1 time.Time) error {
	o := l.begin("write_batch", len(ops))
	o.rung(rungClient, t0, t1)

	node := w.nodes[cl]
	start := time.Now()
	for _, op := range ops {
		var err error
		if op.window {
			_, err = node.WindowAdd(op.key, op.ts, op.els[0], op.els[1])
		} else {
			_, err = node.Add(op.key, op.els[0], op.els[1])
		}
		if err != nil {
			return err
		}
	}
	o.rung(rungNode, start, time.Now())

	p := w.shadow.conns[cl].Pipeline()
	for _, op := range ops {
		if op.window {
			p.WAdd(op.key, op.ts, op.els[0], op.els[1])
		} else {
			p.PFAdd(op.key, op.els[0], op.els[1])
		}
	}
	start = time.Now()
	if _, err := p.Exec(); err != nil {
		return err
	}
	o.rung(rungWire, start, time.Now())

	keys := make([][]byte, len(ops))
	els := make([][][]byte, len(ops))
	for i, op := range ops {
		keys[i] = []byte(op.key)
		els[i] = [][]byte{[]byte(op.els[0]), []byte(op.els[1])}
	}
	start = time.Now()
	for i, op := range ops {
		var err error
		if op.window {
			_, err = w.shadow.store.WindowAddBytes(keys[i], op.ts, els[i])
		} else {
			_, err = w.shadow.store.AddBytes(keys[i], els[i])
		}
		if err != nil {
			return err
		}
	}
	o.rung(rungStore, start, time.Now())

	s := w.scratch[cl]
	start = time.Now()
	for i, op := range ops {
		if op.window {
			ts := time.UnixMilli(op.ts)
			s.ring.Add(ts, els[i][0])
			s.ring.Add(ts, els[i][1])
		} else {
			s.sketch.Add(els[i][0])
			s.sketch.Add(els[i][1])
		}
	}
	o.rung(rungCore, start, time.Now())

	start = time.Now()
	for i := range ops {
		s.sink ^= hashing.Wy64(els[i][0], 0) ^ hashing.Wy64(els[i][1], 0)
	}
	o.rung(rungHash, start, time.Now())

	o.end()
	return nil
}

func (w *serveWrite) measure(c *runCtx, secs float64) error {
	if !w.warm {
		if _, err := w.drive(warmUp(w.secs), nil); err != nil {
			return err
		}
		w.warm = true
		w.groups0, w.batches0 = w.batcherCounters()
		if c.trace {
			w.ladders = newLadders()
		}
	}
	if c.trace {
		// An untraced stretch beside every traced one: the process counters
		// are read around it, so they describe the routed path and not the
		// ladder's replays, and the traced stretches state against it what
		// tracing cost them.
		before := readProc()
		base, err := w.drive(secondsToDuration(secs/4), nil)
		if err != nil {
			return err
		}
		w.proc.add(before, readProc(), base.work.ops())
		w.untraced.add(base.work)
	}
	seg, err := w.drive(secondsToDuration(secs), w.ladders)
	if err != nil {
		return err
	}
	w.rtt.merge(&seg.rtt)
	w.timed.add(seg.work)
	return nil
}

func (w *serveWrite) finish(c *runCtx) error {
	res := c.res
	rate := w.timed.rate()
	res.set("write_cmds_per_s", rate)
	c.logf("serve-write: %d batches timed, batch rtt p50 %.0fus p%.4g %.0fus",
		w.rtt.n(), w.rtt.p50(), tailPercentile(w.rtt.n()), w.rtt.tail())
	var attempted int64
	for _, n := range w.executed {
		attempted += int64(n)
	}
	res.ops(w.name(), attempted, w.failed)
	c.recordProc(w.name(), w.proc)

	if c.trace {
		res.set("client.write_batch_rtt_p50_us", w.rtt.p50())
		res.set("client.write_batch_rtt_p99_us", w.rtt.tail())
		res.set("client.samples.write_batch", float64(w.rtt.n()))
		groups, batches := w.batcherCounters()
		ratio := 0.0
		if batches > w.batches0 {
			ratio = float64(groups-w.groups0) / float64(batches-w.batches0)
		}
		res.set("node.groups_per_batch", ratio)
		lad := mergeLadders(w.ladders)
		bs := lad.budgets()
		printBudgets(c.log, w.name(), bs)
		res.set("budget.unattributed_us.write", bs[len(bs)-1].Unattributed)
		res.set("trace_overhead_pct", (1-rate/w.untraced.rate())*100)
		if err := lad.write(c.outDir, w.name(), c.seed); err != nil {
			return err
		}
	}
	return w.verify(c)
}

// batcherCounters sums the nodes' add-batcher counters: groups coalesced
// and batches flushed.
func (w *serveWrite) batcherCounters() (groups, batches uint64) {
	for _, n := range w.nodes {
		s := n.StatsCounters()
		groups += s.MLPFAddGroups
		batches += s.MLPFAddBatches
	}
	return groups, batches
}

// verify holds the cluster to the CRDT oracle: for a sample of keys, a
// reference sketch (or ring) fed exactly the acknowledged writes must give
// the identical count through every node.
func (w *serveWrite) verify(c *runCtx) error {
	plainRef := make(map[string]*exaloglog.Sketch)
	for i := 0; i < len(w.plain); i += 16 {
		sk := exaloglog.New(precision)
		sk.AddString(touchElement)
		plainRef[w.plain[i]] = sk
	}
	winRef := make(map[string]*window.Counter)
	for i := 0; i < len(w.win); i += 8 {
		ring, err := window.New(sketchConfig, time.Second, 60)
		if err != nil {
			return err
		}
		ring.AddString(time.UnixMilli(clockBaseMillis), touchElement)
		winRef[w.win[i]] = ring
	}
	for cl := 0; cl < clients; cl++ {
		g := newWriteGen(c.seed, cl, w.plain, w.win)
		for i := uint64(0); i < w.executed[cl]; i++ {
			op := g.next()
			if op.window {
				if ring := winRef[op.key]; ring != nil {
					ts := time.UnixMilli(op.ts)
					ring.AddString(ts, op.els[0])
					ring.AddString(ts, op.els[1])
				}
			} else if sk := plainRef[op.key]; sk != nil {
				sk.AddString(op.els[0])
				sk.AddString(op.els[1])
			}
		}
	}
	return verifyCounts(c, w.name(), w.nodes, plainRef, winRef)
}
