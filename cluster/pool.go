package cluster

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net"
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
// Every request goes through exchange. Beyond single commands (do, and
// direct on a connection of its own) there are two batched paths:
//
//   - pipeline sends a slice of commands in one write and reads the
//     replies in one batch (server.Pipeline) — used by the read
//     scatter-gather so N keys on one owner cost one round trip; a
//     transfer window's frames go the same way (stream.flush).
//   - batchAdd/batchWAdd coalesce concurrent per-key add requests —
//     plain and windowed mixed freely — to the same peer into a single
//     CLUSTER MLADD command (group commit): while one flush is on the
//     wire, every new request queues, and the next flush carries them
//     all.
//
// connect opens the transport under every connection: a TCP dial, or in
// the package's tests an in-memory network. alive, when non-nil, is
// invoked with the peer address after every successful command or
// pipeline — transport-level proof the peer is up, which the gossip
// failure detector folds in as heartbeat-grade evidence so ordinary
// traffic keeps refuting suspicion.
type pool struct {
	connect dialer
	alive   func(addr string)
	mu      sync.Mutex
	conns   map[string]*server.Client

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

func newPool(connect dialer) *pool {
	return &pool{
		connect: connect,
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
	c, err := p.dial(addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.conns[addr]; ok { // lost the dial race; keep the first
		c.Close()
		return prev, nil
	}
	p.conns[addr] = c
	return c, nil
}

// dial opens a connection to addr whose commands run under the peer
// timeout.
func (p *pool) dial(addr string) (*server.Client, error) {
	t := p.timeout()
	conn, err := p.connect(addr, t)
	if err != nil {
		return nil, err
	}
	c := server.NewClient(conn)
	c.SetOpTimeout(t)
	return c, nil
}

// dialer opens the transport under a pool's connections.
type dialer func(addr string, timeout time.Duration) (net.Conn, error)

// dialTCP is the dialer of every pool outside the package's tests.
func dialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

func (p *pool) drop(addr string, c *server.Client) {
	p.mu.Lock()
	if p.conns[addr] == c {
		delete(p.conns, addr)
	}
	p.mu.Unlock()
	c.Close()
}

// exchange is the one way a request reaches a peer: run puts the request on
// a connection — the pooled one, or with fresh a connection of its own,
// closed afterwards — and reads the replies. The outcome is classified by
// TRANSPORT, not by error kind: any parsed reply line — OK, a missing key,
// a WRONGTYPE value, an arity error — means the peer
// read the request and answered, so the connection is healthy (the
// protocol is strictly one-reply-one-line, no desync possible) and the
// answer is liveness evidence for the failure detector. Only dial, read
// and write failures drop the pooled connection for a redial on next use.
// Enumerating "benign" error replies here would be wrong twice over: a
// novel error reply would needlessly tear down a healthy connection, and —
// worse — feed the missing alive() into the detector as spurious suspicion
// of a peer that just answered.
func (p *pool) exchange(addr string, fresh bool, run func(*server.Client) error) error {
	open := p.get
	if fresh {
		open = p.dial
	}
	c, err := open(addr)
	if err != nil {
		return err
	}
	if fresh {
		defer c.Close()
	}
	err = run(c)
	if err == nil || server.IsReplyErr(err) {
		if p.alive != nil {
			p.alive(addr)
		}
	} else if !fresh {
		p.drop(addr, c)
	}
	return err
}

// errStale marks a request the peer refused with -STALE: its map differs
// from the one the request was made under (XFER: its epoch is newer). The
// caller settles the maps with that peer (reconcileMap) and retries at
// most once.
var errStale = errors.New("cluster: peer map differs")

// asStale folds a -STALE reply into errStale.
func asStale(err error) error {
	if err != nil && server.IsReplyErr(err) && strings.HasPrefix(err.Error(), "STALE ") {
		return fmt.Errorf("%w (%v)", errStale, err)
	}
	return err
}

// do runs one command against addr on the pooled connection.
func (p *pool) do(addr string, parts ...string) (reply string, err error) {
	err = p.exchange(addr, false, func(c *server.Client) (err error) {
		reply, err = c.Do(parts...)
		return err
	})
	return reply, err
}

// fetchMap pulls the cluster map addr holds: the package's one CLUSTER MAP
// request, shared by a node's Join and reconcileMap and by ClusterClient.
func (p *pool) fetchMap(addr string) (*Map, error) {
	reply, err := p.do(addr, "CLUSTER", "MAP")
	if err != nil {
		return nil, fmt.Errorf("cluster: map from %s: %w", addr, err)
	}
	m, err := DecodeMap(strings.Fields(reply))
	if err != nil {
		return nil, fmt.Errorf("cluster: map from %s: %w", addr, err)
	}
	return m, nil
}

// direct is do on a connection of its own, not the pool's — for SETMAP and
// JOIN, whose handlers run a digest round before they answer. That round's
// own traffic to this node travels on the pool; a pooled connection held
// by a SETMAP waiting on it could hold it up for good.
func (p *pool) direct(addr string, parts ...string) (reply string, err error) {
	err = p.exchange(addr, true, func(c *server.Client) (err error) {
		reply, err = c.Do(parts...)
		return err
	})
	return reply, err
}

// pipeline sends cmds to addr as one pipelined batch and returns one
// Result per command. A transport-level failure drops the cached
// connection; per-command protocol errors (e.g. a missing key) land in
// the individual Results.
func (p *pool) pipeline(addr string, cmds [][]string) (results []server.Result, err error) {
	err = p.exchange(addr, false, func(c *server.Client) (err error) {
		pl := c.Pipeline()
		for _, parts := range cmds {
			pl.Do(parts...)
		}
		results, err = pl.Exec()
		return err
	})
	return results, err
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
	var reply string
	err := p.exchange(addr, false, func(c *server.Client) (err error) {
		reply, err = c.DoLine(func(line []byte) []byte {
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
		return err
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
