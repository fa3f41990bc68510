package cluster

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exaloglog/internal/core"
	"exaloglog/server"
)

// pool caches one client connection per peer address. server.Client
// serializes concurrent commands on its connection, so scatter-gather
// fan-out across peers runs in parallel while same-peer commands queue.
// Connections that error are dropped and redialed on next use.
//
// Beyond single commands the pool offers two batched paths:
//
//   - pipeline sends a slice of commands in one write and reads the
//     replies in one batch (server.Pipeline) — used by the read
//     scatter-gather so N keys on one owner cost one round trip; batch
//     is the same for lines the caller wrote, a transfer window's frames.
//   - batchAdd/batchWAdd coalesce concurrent per-key add requests —
//     plain and windowed mixed freely — to the same peer into a single
//     CLUSTER MLADD command (group commit): while one flush is on the
//     wire, every new request queues, and the next flush carries them
//     all.
//
// hook, when non-nil, is consulted before every outbound command; a
// non-nil return aborts the command with that error. It exists for the
// in-process test harness (simulated partitions and delays) and must
// be set before the owning node starts serving. pipeline and batch consult
// the hook once per queued command (so per-verb partitions and delays see
// every logical command); the add batcher consults it once per flushed
// batch, with the combined MLADD command.
// alive, when non-nil, is invoked with the peer address after every
// successful command or pipeline — transport-level proof the peer is
// up, which the gossip failure detector folds in as heartbeat-grade
// evidence so ordinary traffic keeps refuting suspicion.
type pool struct {
	hook  func(addr string, parts []string) error
	alive func(addr string)
	mu    sync.Mutex
	conns map[string]*server.Client

	bmu     sync.Mutex
	batches map[string]*peerBatch

	// mlGroups/mlBatches count the group-commit coalescing: how many
	// per-key add groups went out, in how many MLADD flushes — the
	// CLUSTER STATS mlpfadd_* counters (groups/batches is the average
	// coalescing factor; the names predate the mixed batcher). mlBytes
	// counts the bytes of the MLADD lines sent, line breaks included.
	mlGroups  atomic.Uint64
	mlBatches atomic.Uint64
	mlBytes   atomic.Uint64

	// timeoutNS is the per-command I/O deadline (nanoseconds; 0 = no
	// deadline) applied to every dialed connection: each Do/pipeline
	// write-read runs under it, so a black-holed peer fails as a
	// TRANSPORT error instead of hanging the caller. Atomic so
	// SetPeerTimeout can tune it at runtime; connections pick it up
	// when dialed.
	timeoutNS atomic.Int64
}

func newPool() *pool {
	return &pool{
		conns:   make(map[string]*server.Client),
		batches: make(map[string]*peerBatch),
	}
}

// defaultPeerTimeout is the pool's out-of-the-box per-command I/O
// deadline — generous, because it only needs to beat "forever": elld
// tightens it via -peer-timeout.
const defaultPeerTimeout = 10 * time.Second

func (p *pool) setTimeout(d time.Duration) { p.timeoutNS.Store(int64(d)) }

func (p *pool) timeout() time.Duration {
	d := time.Duration(p.timeoutNS.Load())
	if d < 0 {
		return 0
	}
	return d
}

func (p *pool) get(addr string) (*server.Client, error) {
	p.mu.Lock()
	if c, ok := p.conns[addr]; ok {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	t := p.timeout()
	c, err := server.DialTimeout(addr, t)
	if err != nil {
		return nil, err
	}
	c.SetOpTimeout(t)
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.conns[addr]; ok { // lost the dial race; keep the first
		c.Close()
		return prev, nil
	}
	p.conns[addr] = c
	return c, nil
}

func (p *pool) drop(addr string, c *server.Client) {
	p.mu.Lock()
	if p.conns[addr] == c {
		delete(p.conns, addr)
	}
	p.mu.Unlock()
	c.Close()
}

// do runs one command against addr, classifying the outcome by
// TRANSPORT, not by error kind: any parsed reply line — OK, a missing
// key, a WRONGTYPE value, an arity error, a -MOVED redirect — means
// the peer read the command and answered, so the pooled connection is
// healthy (the protocol is strictly one-reply-one-line, no desync
// possible) and the answer is liveness evidence for the failure
// detector. Only dial/read/write failures drop the cached connection
// for a redial on next use. Enumerating "benign" error replies here
// would be wrong twice over: a novel error reply would needlessly
// tear down a healthy connection, and — worse — feed the missing
// alive() into the detector as spurious suspicion of a peer that just
// answered.
func (p *pool) do(addr string, parts ...string) (string, error) {
	return p.send(addr, parts, func(c *server.Client) (string, error) { return c.Do(parts...) })
}

// send is do with the command put on the wire by cmd; head, its first
// tokens, is what the fault hook is shown.
func (p *pool) send(addr string, head []string, cmd func(*server.Client) (string, error)) (string, error) {
	if p.hook != nil {
		if err := p.hook(addr, head); err != nil {
			return "", err
		}
	}
	c, err := p.get(addr)
	if err != nil {
		return "", err
	}
	reply, err := cmd(c)
	answered := err == nil || server.IsReplyErr(err)
	if !answered {
		p.drop(addr, c)
	} else if p.alive != nil {
		// Even an error reply proves the peer answered.
		p.alive(addr)
	}
	return reply, err
}

// direct runs one command against addr on a connection of its own, not
// the pool's — for SETMAP and JOIN, whose handlers run a digest round
// before they answer. That round's own traffic to this node travels on
// the pool; a pooled connection held by a SETMAP waiting on it could hold
// it up for good. The hook, the timeout and the alive callback apply as to
// pooled commands.
func (p *pool) direct(addr string, parts ...string) (string, error) {
	if p.hook != nil {
		if err := p.hook(addr, parts); err != nil {
			return "", err
		}
	}
	t := p.timeout()
	c, err := server.DialTimeout(addr, t)
	if err != nil {
		return "", err
	}
	defer c.Close()
	c.SetOpTimeout(t)
	reply, err := c.Do(parts...)
	if (err == nil || server.IsReplyErr(err)) && p.alive != nil {
		p.alive(addr)
	}
	return reply, err
}

// pipeline sends cmds to addr as one pipelined batch and returns one
// Result per command. A transport-level failure drops the cached
// connection; per-command protocol errors (e.g. a missing key) land in
// the individual Results.
func (p *pool) pipeline(addr string, cmds [][]string) ([]server.Result, error) {
	return p.batch(addr, cmds, func(c *server.Client) ([]server.Result, error) {
		pl := c.Pipeline()
		for _, parts := range cmds {
			pl.Do(parts...)
		}
		return pl.Exec()
	})
}

// batch is pipeline with the batch put on the wire by exec; heads holds
// each command's first tokens, what the fault hook is shown.
func (p *pool) batch(addr string, heads [][]string, exec func(*server.Client) ([]server.Result, error)) ([]server.Result, error) {
	if p.hook != nil {
		for _, parts := range heads {
			if err := p.hook(addr, parts); err != nil {
				return nil, err
			}
		}
	}
	c, err := p.get(addr)
	if err != nil {
		return nil, err
	}
	results, err := exec(c)
	if err != nil {
		p.drop(addr, c)
		return nil, err
	}
	if p.alive != nil {
		p.alive(addr)
	}
	return results, nil
}

// addReq is one queued remote add awaiting a batched flush — plain
// (PFADD-shaped) or, when windowed is set, a WADD carrying its
// unix-millisecond observation timestamp. The elements travel as their
// token batch; the caller keeps it unchanged until done is answered.
type addReq struct {
	key      string
	windowed bool
	ts       int64 // unix milliseconds; windowed groups only
	n        int   // the elements the batch was made of; windowed groups only
	batch    core.Hybrid
	done     chan addResult
}

type addResult struct {
	changed  bool // plain groups: the owner's changed-bit
	accepted int  // windowed groups: how many elements the owner accepted
	err      error
}

// peerBatch is the per-peer group-commit queue for adds.
type peerBatch struct {
	mu       sync.Mutex
	pending  []*addReq
	flushing bool
}

func (p *pool) batchFor(addr string) *peerBatch {
	p.bmu.Lock()
	defer p.bmu.Unlock()
	b, ok := p.batches[addr]
	if !ok {
		b = &peerBatch{}
		p.batches[addr] = b
	}
	return b
}

// batchAdd queues a plain add of a token batch into key on the peer at
// addr and returns its result. Concurrent calls to the same peer coalesce:
// one caller becomes the flusher and drains the queue in MLADD batches
// (one write, one reply per batch) while later callers just park on
// their result channel — the cluster-side equivalent of the server's
// coalesced flush.
func (p *pool) batchAdd(addr, key string, batch *core.Hybrid) (bool, error) {
	res := p.enqueueAdd(addr, &addReq{key: key, batch: *batch, done: make(chan addResult, 1)})
	return res.changed, res.err
}

// batchWAdd is batchAdd's windowed sibling for n elements observed at
// tsMillis: the request rides the same per-peer group-commit queue, so
// mixed PFADD/WADD load to one owner still coalesces into single MLADD
// round trips instead of splitting into two serialized batch streams.
func (p *pool) batchWAdd(addr, key string, tsMillis int64, batch *core.Hybrid, n int) (int, error) {
	res := p.enqueueAdd(addr, &addReq{key: key, windowed: true, ts: tsMillis, n: n,
		batch: *batch, done: make(chan addResult, 1)})
	return res.accepted, res.err
}

// enqueueAdd parks req on addr's group-commit queue and returns its
// result, electing the caller as flusher when none is running.
func (p *pool) enqueueAdd(addr string, req *addReq) addResult {
	b := p.batchFor(addr)
	b.mu.Lock()
	b.pending = append(b.pending, req)
	if b.flushing {
		b.mu.Unlock()
		return <-req.done
	}
	b.flushing = true
	b.mu.Unlock()
	for {
		b.mu.Lock()
		batch := b.pending
		if len(batch) == 0 {
			b.flushing = false
			b.mu.Unlock()
			break
		}
		b.pending = nil
		b.mu.Unlock()
		p.flushAdds(addr, batch)
	}
	return <-req.done
}

// flushAdds sends one MLADD carrying every queued group — plain and
// windowed interleaved — and fans the per-group results back out to the
// waiting callers. A group's 'E' outcome (the owner refused it: a
// WRONGTYPE key, or a key of another sketch configuration) fails that
// caller alone; the neighbors coalesced into the batch are unaffected.
func (p *pool) flushAdds(addr string, batch []*addReq) {
	p.mlBatches.Add(1)
	p.mlGroups.Add(uint64(len(batch)))
	// The line is written once, into the buffer it is sent from.
	reply, err := p.send(addr, mlAddHead, func(c *server.Client) (string, error) {
		return c.DoLine(func(line []byte) []byte {
			line = strconv.AppendInt(append(line, "CLUSTER MLADD "...), int64(len(batch)), 10)
			for _, r := range batch {
				if r.windowed {
					line = append(append(line, " w "...), r.key...)
					line = strconv.AppendInt(append(line, ' '), r.ts, 10)
					line = strconv.AppendInt(append(line, ' '), int64(r.n), 10)
				} else {
					line = append(append(line, " p "...), r.key...)
				}
				line = appendBatch(append(line, ' '), &r.batch)
			}
			p.mlBytes.Add(uint64(len(line) + 1)) // and the line break
			return line
		})
	})
	var toks []string
	if err == nil {
		toks = strings.Fields(reply)
		if len(toks) != len(batch) {
			err = fmt.Errorf("cluster: MLADD replied %d tokens for %d groups", len(toks), len(batch))
		}
	}
	for i, r := range batch {
		if err != nil {
			r.done <- addResult{err: err}
			continue
		}
		if toks[i] == "E" {
			r.done <- addResult{err: fmt.Errorf("cluster: add %q refused on %s (a key of another type or sketch configuration): %w",
				r.key, addr, server.ErrWrongType)}
			continue
		}
		if r.windowed {
			accepted, perr := strconv.Atoi(toks[i])
			if perr != nil {
				r.done <- addResult{err: fmt.Errorf("cluster: MLADD windowed group replied %q", toks[i])}
				continue
			}
			r.done <- addResult{accepted: accepted}
			continue
		}
		r.done <- addResult{changed: toks[i] == "1"}
	}
}

var mlAddHead = []string{"CLUSTER", "MLADD"}

// appendBatch appends the base64 of the batch's MarshalBinary bytes to
// line. A batch of up to some 300 tokens is marshaled on the stack, so the
// line holds the only copy on the heap.
func appendBatch(line []byte, batch *core.Hybrid) []byte {
	var raw [mlAddRawBytes]byte
	blob, _ := batch.AppendBinary(raw[:0]) // appending a sketch's bytes cannot fail
	return base64.StdEncoding.AppendEncode(line, blob)
}

func (p *pool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr, c := range p.conns {
		c.Close()
		delete(p.conns, addr)
	}
}
