package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"sort"

	"exaloglog/internal/hashing"
)

// Everything the system under test is fed comes out of this file, as a pure
// function of -seed: which key an operation hits, its class, its elements
// and its logical timestamp. Key *names* are fixed (p0000, w0000, mk00000):
// the consistent-hash ring places keys by name, and a placement that moved
// with the seed would make the seeds measure different amounts of
// replication and rebalance work instead of the same work on other data.

// rng is SplitMix64: tiny, and stable across Go releases, which
// math/rand's stream is not promised to be.
type rng struct{ s uint64 }

// newRNG derives an independent stream per (seed, purpose, index). The
// index is mixed, not added: SplitMix64 states one increment apart are the
// same stream shifted by one.
func newRNG(seed uint64, purpose string, index int) *rng {
	return &rng{s: hashing.Mix64(hashing.Mix64(seed^hashing.WyString(purpose, 0)) ^ hashing.Mix64(uint64(index)+1))}
}

func (r *rng) u64() uint64 { return hashing.SplitMix64(&r.s) }

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

// element renders 64 fresh bits as a 16-character token: two calls never
// return the same element within a stream, so every insert is a new one.
func (r *rng) element() string {
	const digits = "0123456789abcdef"
	x := r.u64()
	var b [16]byte
	for i := range b {
		b[i] = digits[x>>60]
		x <<= 4
	}
	return string(b[:])
}

// zipf draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s from a precomputed
// distribution function.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

const zipfS = 1.1

// deck deals operation classes in the exact proportions of weights: it
// shuffles one card per unit of weight, deals them out, and shuffles again.
// Every len(deck) operations therefore carry the nominal mix exactly, and
// a throughput window holds the mix it should — an independent draw per
// operation would make every window's rate a sample of the mix first and
// of the system second.
type deck struct {
	cards []int
	next  int
}

func newDeck(weights []int) *deck {
	d := &deck{}
	for class, w := range weights {
		for i := 0; i < w; i++ {
			d.cards = append(d.cards, class)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal(r *rng) int {
	if d.next == len(d.cards) {
		for i := len(d.cards) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
		}
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// Logical time. WADD timestamps step through one ring span (60 slices of
// one second) that starts on a span boundary, so no insert is ever older
// than the ring and the final ring contents do not depend on the order in
// which the two clients' writes arrive — which is what lets the oracle
// replay them afterwards in any order.
const (
	clockBaseMillis = 1_700_000_040_000 // a multiple of 60 000
	clockSpanMillis = 60_000
)

func logicalMillis(i uint64) int64 {
	return clockBaseMillis + int64(i*37%clockSpanMillis)
}

func keyNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return names
}

// digester hashes the generated inputs, so that two runs can show they
// served the same ones.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) str(parts ...string) {
	for _, p := range parts {
		d.h.Write([]byte(p))
		d.h.Write([]byte{0})
	}
}

func (d *digester) num(v int64) { d.str(fmt.Sprint(v)) }

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// digestOps is how many operations of each client's stream the digest
// covers. A closed loop executes a speed-dependent number of operations;
// the digest must not depend on speed.
const digestOps = 4096

// --- serve-write ---------------------------------------------------------

type writeOp struct {
	window bool
	key    string
	ts     int64 // window ops only
	els    [2]string
}

// writeGen is one client's command stream: PFADD 8 : WADD 2, two fresh
// elements per command, zipf over the plain and the window key set.
type writeGen struct {
	r            *rng
	plain, win   []string
	zPlain, zWin *zipf
	verbs        *deck // 0: PFADD, 1: WADD
	i            uint64
}

func newWriteGen(seed uint64, client int, plain, win []string) *writeGen {
	return &writeGen{
		r:     newRNG(seed, "serve-write", client),
		plain: plain, win: win,
		zPlain: newZipf(len(plain), zipfS), zWin: newZipf(len(win), zipfS),
		verbs: newDeck([]int{8, 2}),
	}
}

func (g *writeGen) next() writeOp {
	var op writeOp
	if g.verbs.deal(g.r) == 1 {
		op.window = true
		op.key = g.win[g.zWin.draw(g.r)]
		op.ts = logicalMillis(g.i)
	} else {
		op.key = g.plain[g.zPlain.draw(g.r)]
	}
	op.els = [2]string{g.r.element(), g.r.element()}
	g.i++
	return op
}

func (op writeOp) digest(d *digester) {
	if op.window {
		d.str("WADD", op.key, op.els[0], op.els[1])
		d.num(op.ts)
		return
	}
	d.str("PFADD", op.key, op.els[0], op.els[1])
}

// --- serve-read ----------------------------------------------------------

type readClass int

const (
	pfcountCold readClass = iota // PFADD k then PFCOUNT k
	pfcountHot                   // PFCOUNT on a key nobody writes
	union8                       // 8-key PFCOUNT
	wcount                       // WCOUNT over 30 slices
	wadd                         // WADD of two fresh elements
	numReadClasses
)

var readClassNames = [numReadClasses]string{"pfcount_cold", "pfcount_hot", "union8", "wcount", "wadd"}

// readClassWeights are the shares (of 100) of the op classes.
var readClassWeights = [numReadClasses]int{35, 25, 15, 15, 10}

type readOp struct {
	class readClass
	key   string   // every class but union8
	keys  []string // union8
	ts    int64    // wadd
	els   [2]string
}

// readGen is one client's operation stream. The plain keys are split in a
// written half (pfcount_cold) and a read-only half (pfcount_hot, union8),
// so the read-only results can be checked against the preload alone.
type readGen struct {
	r                *rng
	cold, hot, win   []string
	zCold, zHot, zWn *zipf
	classes          *deck
	i                uint64
}

func newReadGen(seed uint64, client int, plain, win []string) *readGen {
	cold, hot := plain[:len(plain)/2], plain[len(plain)/2:]
	return &readGen{
		r:    newRNG(seed, "serve-read", client),
		cold: cold, hot: hot, win: win,
		zCold: newZipf(len(cold), zipfS), zHot: newZipf(len(hot), zipfS), zWn: newZipf(len(win), zipfS),
		classes: newDeck(readClassWeights[:]),
	}
}

func (g *readGen) next() readOp {
	op := readOp{class: readClass(g.classes.deal(g.r))}
	switch op.class {
	case pfcountCold:
		op.key = g.cold[g.zCold.draw(g.r)]
		op.els[0] = g.r.element()
	case pfcountHot:
		op.key = g.hot[g.zHot.draw(g.r)]
	case union8:
		op.keys = make([]string, 0, 8)
		for len(op.keys) < 8 {
			k := g.hot[g.zHot.draw(g.r)]
			if !slices.Contains(op.keys, k) {
				op.keys = append(op.keys, k)
			}
		}
	case wcount:
		op.key = g.win[g.zWn.draw(g.r)]
	case wadd:
		op.key = g.win[g.zWn.draw(g.r)]
		op.ts = logicalMillis(g.i)
		op.els = [2]string{g.r.element(), g.r.element()}
	}
	g.i++
	return op
}

func (op readOp) digest(d *digester) {
	d.str(readClassNames[op.class], op.key, op.els[0], op.els[1])
	d.str(op.keys...)
	d.num(op.ts)
}

// freshElements returns n fresh elements from r.
func freshElements(r *rng, n int) []string {
	els := make([]string, n)
	for i := range els {
		els[i] = r.element()
	}
	return els
}

// --- many-keys -----------------------------------------------------------

// manyKeysCardinality is key i's element count: of every 20 keys one is
// large (1001–10000), five are medium (33–1000) and fourteen small (1–32) —
// the 5/25/70 % skew of a real keyspace. Within a class the sizes walk the
// range in a fixed stride. Sizes do not depend on the seed (contents do):
// how many keys are dense decides how long compression takes, and the seeds
// are meant to repeat the same work on other data.
func manyKeysCardinality(i int) int {
	lo, hi := 1, 32
	switch m := i % 20; {
	case m == 0:
		lo, hi = 1001, 10000
	case m <= 5:
		lo, hi = 33, 1000
	}
	return lo + i*7919%(hi-lo+1)
}
