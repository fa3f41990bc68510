package main

import (
	"encoding/binary"
	"math"
	"time"

	"exaloglog"
	"exaloglog/internal/compress"
	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
	"exaloglog/window"
)

// libSketch is the paper's own evaluation: the sketch as a library, one
// goroutine, no network. server and cluster do no work here.

const (
	precision = 12 // p of every sketch in the benchmark: ELL(2,20), 2^12 registers
	poolSize  = 1 << 20
)

var sketchConfig = core.Config{T: 2, D: 20, P: precision}

// insertTiers are the fill levels inserts are timed up to, from fresh.
var insertTiers = [...]int{100, 10_000, 1_000_000}

// estimateTiers are the fill levels of the prebuilt sketches Estimate is
// timed on; the names are the suffixes of core.estimate_us.*.
var estimateTiers = [...]struct {
	n    int
	name string
}{{10, "n10"}, {1_000, "n1e3"}, {100_000, "n1e5"}, {10_000_000, "n1e7"}}

// Accuracy trials use their own fixed seed, not -seed: mvp is a property of
// the estimator, and the 2 % a later change may cost it is far below the
// ±9 % by which 256 trials on fresh random streams differ from the next
// 256. With fixed streams the figure is exact for a commit.
const (
	accuracySeed   = 0x45784c6f67 // "ExLog"
	accuracyTrials = 256
)

type libSketch struct {
	pool     [][16]byte // seeded 16-byte elements
	prebuilt [len(estimateTiers)]*exaloglog.Sketch
	mergeA   *exaloglog.Sketch
	mergeB   *exaloglog.Sketch
	mergeDst *exaloglog.Sketch
	scratch  *exaloglog.Sketch
	lad      *ladder

	// One value per slice: the slice's time over the slice's calls.
	insert    [len(insertTiers)][]float64   // ns per element
	estimate  [len(estimateTiers)][]float64 // ns per call
	merge     []float64                     // ns per call
	attempted int64
	proc      procUse
	sink      float64
}

func (w *libSketch) name() string { return "lib-sketch" }

func (w *libSketch) setUp(c *runCtx, secs float64) error {
	r := newRNG(c.seed, "lib-sketch", 0)
	d := newDigester()
	w.pool = make([][16]byte, poolSize)
	for i := range w.pool {
		binary.LittleEndian.PutUint64(w.pool[i][:8], r.u64())
		binary.LittleEndian.PutUint64(w.pool[i][8:], r.u64())
		if i < digestOps {
			d.str(string(w.pool[i][:]))
		}
	}
	c.res.digests[w.name()] = d.sum()

	// Elements past the pool are the pool's with a counter folded in, so
	// the large sketches still see distinct 16-byte inputs.
	var el [16]byte
	for t, tier := range estimateTiers {
		sk := exaloglog.New(precision)
		for i := 0; i < tier.n; i++ {
			el = w.pool[i%poolSize]
			binary.LittleEndian.PutUint64(el[8:], binary.LittleEndian.Uint64(el[8:])+uint64(i/poolSize))
			sk.Add(el[:])
		}
		w.prebuilt[t] = sk
	}
	w.mergeA, w.mergeB = exaloglog.New(precision), exaloglog.New(precision)
	for i := 0; i < 100_000; i++ {
		w.mergeA.Add(w.pool[i][:])
		w.mergeB.Add(w.pool[poolSize-1-i][:])
	}
	w.mergeDst = exaloglog.New(precision)
	w.scratch = exaloglog.New(precision)
	w.lad = newLadder(time.Now(), 0, 1)
	return nil
}

func (w *libSketch) tearDown() {}

func (w *libSketch) measure(c *runCtx, secs float64) error {
	share := func(f float64) time.Duration { return secondsToDuration(secs * f) }
	before := readProc()
	var attempted int64

	// Insert, from fresh, to three fill levels. A near-empty sketch changes
	// state on almost every insert and a full one on almost none, so the
	// tiers weigh the update path and the early-exit path equally.
	t0 := time.Now()
	sk := w.scratch
	for t, n := range insertTiers {
		var spent time.Duration
		inserted := 0
		deadline := time.Now().Add(share(0.2))
		for inserted == 0 || time.Now().Before(deadline) {
			sk.Reset()
			start := time.Now()
			for i := 0; i < n; i++ {
				sk.Add(w.pool[i][:])
			}
			spent += time.Since(start)
			inserted += n
		}
		w.insert[t] = append(w.insert[t], float64(spent.Nanoseconds())/float64(inserted))
		attempted += int64(inserted)
	}
	w.lad.phase("lib/insert", t0, time.Now())

	t0 = time.Now()
	for t := range estimateTiers {
		sk := w.prebuilt[t]
		chunks := timeChunks(share(0.06), 10, func() { w.sink += sk.Estimate() })
		w.estimate[t] = append(w.estimate[t], mean(chunks))
		attempted += int64(10 * len(chunks))
	}
	w.lad.phase("lib/estimate", t0, time.Now())

	// Merge B into a sketch holding A. The destination is rebuilt, untimed,
	// before every call: a second merge of the same B changes no register
	// and would time only the comparison.
	t0 = time.Now()
	var spent time.Duration
	merges := 0
	deadline := time.Now().Add(share(0.1))
	for merges < 2 || time.Now().Before(deadline) {
		w.mergeDst.Reset()
		if err := w.mergeDst.Merge(w.mergeA); err != nil {
			return err
		}
		start := time.Now()
		err := w.mergeDst.Merge(w.mergeB)
		spent += time.Since(start)
		if err != nil {
			return err
		}
		merges++
	}
	w.merge = append(w.merge, float64(spent.Nanoseconds())/float64(merges))
	attempted += int64(merges)
	w.lad.phase("lib/merge", t0, time.Now())

	w.attempted += attempted
	w.proc.add(before, readProc(), attempted)
	return nil
}

func (w *libSketch) finish(c *runCtx) error {
	res := c.res
	insertNs, estimateUs := 0.0, 0.0
	for t := range insertTiers {
		insertNs += median(w.insert[t]) / float64(len(insertTiers))
	}
	for t, tier := range estimateTiers {
		us := median(w.estimate[t]) / 1e3
		estimateUs += us / float64(len(estimateTiers))
		if c.trace {
			res.set("core.estimate_us."+tier.name, us)
		}
	}
	mergeUs := median(w.merge) / 1e3
	res.set("insert_ns", insertNs)
	res.set("estimate_us", estimateUs)
	res.set("merge_us", mergeUs)

	t0 := time.Now()
	rmse, bias, bits := accuracy(100_000)
	res.set("mvp", float64(bits)*rmse*rmse)
	w.lad.phase("lib/accuracy", t0, time.Now())
	// The asymptotic relative standard error at p=12 is 0.57 %; at n=1e5
	// (24 elements per register) the sketch is still below it, near 0.46 %.
	// A broken estimator is off by integer factors, not by a few tenths.
	res.verify("lib-sketch.accuracy", rmse > 0.003 && rmse < 0.007,
		"rel. rmse %.4f %% at n=1e5 over %d trials (asymptotic theory 0.57 %%)", rmse*100, accuracyTrials)
	if err := w.verifyMerge(c); err != nil {
		return err
	}
	if c.trace {
		if err := w.layers(c, mergeUs, rmse, bias); err != nil {
			return err
		}
	}
	c.recordProc(w.name(), w.proc)
	res.ops(w.name(), w.attempted, 0)
	if c.trace {
		return w.lad.write(c.outDir, w.name(), c.seed)
	}
	return nil
}

// accuracy runs the fixed-seed trials at n distinct elements and returns
// the relative root-mean-square error, the relative bias and the
// serialized size in bits.
func accuracy(n int) (rmse, bias float64, bits int) {
	sk := exaloglog.New(precision)
	var sumSq, sum float64
	for trial := 0; trial < accuracyTrials; trial++ {
		r := newRNG(accuracySeed, "accuracy", trial)
		sk.Reset()
		for i := 0; i < n; i++ {
			sk.AddHash(r.u64())
		}
		rel := sk.Estimate()/float64(n) - 1
		sumSq += rel * rel
		sum += rel
	}
	blob, err := sk.MarshalBinary()
	if err != nil {
		panic(err) // a valid sketch always serializes
	}
	return math.Sqrt(sumSq / accuracyTrials), sum / accuracyTrials, 8 * len(blob)
}

// verifyMerge holds the library to the property the cluster's oracle rests
// on: merging is the same as having seen both streams, and a serialized
// sketch comes back identical.
func (w *libSketch) verifyMerge(c *runCtx) error {
	both := exaloglog.New(precision)
	for i := 0; i < 100_000; i++ {
		both.Add(w.pool[i][:])
		both.Add(w.pool[poolSize-1-i][:])
	}
	merged := w.mergeA.Clone()
	if err := merged.Merge(w.mergeB); err != nil {
		return err
	}
	c.res.verify("lib-sketch.merge_is_union", merged.Estimate() == both.Estimate(),
		"merge %.3f, single sketch fed both streams %.3f", merged.Estimate(), both.Estimate())
	blob, err := merged.MarshalBinary()
	if err != nil {
		return err
	}
	back, err := exaloglog.FromBinary(blob)
	if err != nil {
		return err
	}
	c.res.verify("lib-sketch.marshal_round_trip", back.Estimate() == merged.Estimate(),
		"%d bytes, estimate %.3f -> %.3f", len(blob), merged.Estimate(), back.Estimate())
	return nil
}

// layers measures hashing, core, window and compress on their own — the
// per-layer numbers behind the four end-to-end ones above.
func (w *libSketch) layers(c *runCtx, mergeUs, rmse1e5, bias1e5 float64) error {
	res := c.res
	const slot = 100 * time.Millisecond // per measurement; these are single-layer loops
	t0 := time.Now()

	// hashing: the 16-byte pool through Wy64, nothing else.
	var h uint64
	var per []float64
	for chunk := 0; chunk < 9; chunk++ {
		start := time.Now()
		for i := range w.pool {
			h ^= hashing.Wy64(w.pool[i][:], 0)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/poolSize)
	}
	res.set("hashing.wy64_ns", median(per))

	// core insert without the hash: the same hashes into a fresh sketch
	// up to n=1e6, and the share of them that changed a register.
	hashes := make([]uint64, poolSize)
	for i := range hashes {
		hashes[i] = hashing.Wy64(w.pool[i][:], 0)
	}
	sk := exaloglog.New(precision)
	per = per[:0]
	for chunk := 0; chunk < 9; chunk++ {
		sk.Reset()
		start := time.Now()
		for _, x := range hashes[:1_000_000] {
			sk.AddHash(x)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/1e6)
	}
	res.set("core.addhash_ns", median(per))
	res.set("core.addhash_changed_share", float64(sk.StateChanges())/1e6)

	// The Newton iteration count on fixed sparse-mode coefficients: the
	// one public door to the solver's own counter.
	ts, err := core.NewTokenSet(core.DefaultTokenV)
	if err != nil {
		return err
	}
	r := newRNG(accuracySeed, "ml-iterations", 0)
	for i := 0; i < 1000; i++ {
		ts.AddHash(r.u64())
	}
	_, iterations := core.SolveMLCounted(ts.MLCoefficients(), 1)
	res.set("core.ml_iterations", float64(iterations))

	var sink float64
	mid := w.prebuilt[2]
	res.set("core.estimate_allocs", allocsPerCall(200, func() { sink += mid.Estimate() }))
	res.set("core.merge_us", mergeUs)

	var blob []byte
	ns := timeOp(slot, 50, func() { blob, err = mid.MarshalBinary() })
	if err != nil {
		return err
	}
	res.set("core.marshal_us", ns/1e3)
	ns = timeOp(slot, 50, func() { _, err = exaloglog.FromBinary(blob) })
	if err != nil {
		return err
	}
	res.set("core.unmarshal_us", ns/1e3)

	rmse10, _, _ := accuracy(10)
	rmse1e3, _, _ := accuracy(1000)
	res.set("core.rel_rmse.n1e1", rmse10*100)
	res.set("core.rel_rmse.n1e3", rmse1e3*100)
	res.set("core.rel_rmse.n1e5", rmse1e5*100)
	res.set("core.rel_bias.n1e5", bias1e5*100)

	// Hybrid (sparse hash tokens, dense at break-even) up to n=1000.
	hy, err := exaloglog.NewHybrid(sketchConfig)
	if err != nil {
		return err
	}
	ns = timeOp(slot, 20, func() {
		hy, _ = exaloglog.NewHybrid(sketchConfig) // err checked above; cfg is constant
		for _, x := range hashes[:1000] {
			hy.AddHash(x)
		}
	})
	res.set("core.hybrid_add_ns", ns/1000)
	small, err := exaloglog.NewHybrid(sketchConfig)
	if err != nil {
		return err
	}
	fixed := newRNG(accuracySeed, "hybrid", 0)
	for i := 0; i < 100; i++ {
		small.AddHash(fixed.u64())
	}
	hblob, err := small.MarshalBinary()
	if err != nil {
		return err
	}
	res.set("core.hybrid_bytes.n100", float64(len(hblob)))
	w.lad.phase("lib/core-layers", t0, time.Now())

	// window: a 60-slice ring, 1000 elements per slice.
	t0 = time.Now()
	ring, other, err := filledRings(hashes)
	if err != nil {
		return err
	}
	i := 0
	ns = timeOp(slot, 1000, func() {
		ring.AddHash(time.UnixMilli(logicalMillis(uint64(i))), hashes[i%poolSize])
		i++
	})
	res.set("window.addhash_ns", ns)
	now := time.UnixMilli(clockBaseMillis + clockSpanMillis - 1)
	ns = timeOp(slot, 3, func() { sink += ring.Estimate(now, 30*time.Second) })
	res.set("window.estimate_us", ns/1e3)
	ns = timeOp(slot, 3, func() { err = ring.Merge(other) })
	if err != nil {
		return err
	}
	res.set("window.merge_us", ns/1e3)
	ns = timeOp(slot, 3, func() { _, err = ring.MarshalBinary() })
	if err != nil {
		return err
	}
	res.set("window.marshal_us", ns/1e3)
	w.lad.phase("lib/window-layer", t0, time.Now())

	// compress: the blob codec on a sparse (n=10) and a dense (n=1e5) sketch.
	t0 = time.Now()
	for _, in := range []struct {
		name string
		sk   *exaloglog.Sketch
	}{{"sparse", w.prebuilt[0]}, {"dense", w.prebuilt[2]}} {
		raw, err := in.sk.MarshalBinary()
		if err != nil {
			return err
		}
		var enc []byte
		ns = timeOp(slot, 3, func() { enc = compress.EncodeBlob(raw) })
		res.set("compress.encode_mb_s."+in.name, float64(len(raw))/ns*1e3)
		ns = timeOp(slot, 3, func() { _, err = compress.DecodeBlob(enc, len(raw)) })
		if err != nil {
			return err
		}
		res.set("compress.decode_mb_s."+in.name, float64(len(raw))/ns*1e3)
		res.set("compress.ratio."+in.name, float64(len(raw))/float64(len(enc)))
	}
	w.lad.phase("lib/compress-layer", t0, time.Now())
	_, _ = h, sink
	return nil
}

// filledRings returns two 60-slice window counters over the logical span,
// 1000 hashes per slice each, from different ends of hashes.
func filledRings(hashes []uint64) (a, b *window.Counter, err error) {
	if a, err = window.New(sketchConfig, time.Second, 60); err != nil {
		return nil, nil, err
	}
	if b, err = window.New(sketchConfig, time.Second, 60); err != nil {
		return nil, nil, err
	}
	for s := 0; s < 60; s++ {
		ts := time.UnixMilli(clockBaseMillis + int64(s)*1000)
		for i := 0; i < 1000; i++ {
			a.AddHash(ts, hashes[s*1000+i])
			b.AddHash(ts, hashes[len(hashes)-1-s*1000-i])
		}
	}
	return a, b, nil
}
