package cluster

import (
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"exaloglog/internal/core"
	"exaloglog/server"
)

// pool lends connections to peers. Each peer address has a free list of
// idle connections: a request takes one (or dials one when none is idle),
// has it to itself for the round trip, and hands it back once a reply is
// parsed. Requests to one peer therefore run side by side, each on a
// connection of its own, and a request whose handler calls back into this
// node (SETMAP, JOIN) holds no connection another request is waiting for.
// A peer's idle list never holds more connections than the most requests
// that were ever in flight to it at once.
//
// Every request goes through exchange, on the caller's goroutine: single
// commands (do, and mlAdd for a forwarded write) and pipeline, which sends
// a slice of commands in one write and reads the replies in one batch
// (server.Pipeline) — used by the read scatter-gather so N keys on one
// owner cost one round trip; a transfer window's frames go the same way
// (stream.flush).
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
	idle    map[string][]*server.Client // by peer address; nil once closeAll ran

	// mlLines counts the MLADD lines sent, one a forwarded write, and
	// mlBytes their bytes, line breaks included.
	mlLines atomic.Uint64
	mlBytes atomic.Uint64

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
		idle:    make(map[string][]*server.Client),
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

// lend takes an idle connection to addr off its free list, or dials one
// when none is idle; idle says which.
func (p *pool) lend(addr string) (c *server.Client, idle bool, err error) {
	p.mu.Lock()
	if free := p.idle[addr]; len(free) > 0 {
		c, free[len(free)-1] = free[len(free)-1], nil
		p.idle[addr] = free[:len(free)-1]
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	c, err = p.dial(addr)
	return c, false, err
}

// giveBack puts a connection whose last reply was parsed on addr's free
// list, or closes it when closeAll has run since it was lent.
func (p *pool) giveBack(addr string, c *server.Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idle == nil {
		c.Close()
		return
	}
	p.idle[addr] = append(p.idle[addr], c)
}

// closeIdle closes every idle connection to addr.
func (p *pool) closeIdle(addr string) {
	p.mu.Lock()
	free := p.idle[addr]
	delete(p.idle, addr)
	p.mu.Unlock()
	for _, c := range free {
		c.Close()
	}
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

// exchange is the one way a request reaches a peer: run puts the request on
// a lent connection and reads the replies. The outcome is classified by
// TRANSPORT, not by error kind: any parsed reply line — OK, a missing key,
// a WRONGTYPE value, an arity error — means the peer read the request and
// answered, so the connection is healthy (the protocol is strictly
// one-reply-one-line, no desync possible) and goes back to the free list,
// and the answer is liveness evidence for the failure detector. A dial,
// read or write failure closes the connection and every idle one to the
// same peer, which are likely as broken, so the next request dials once.
// Enumerating "benign" error replies here would be wrong twice over: a
// novel error reply would needlessly tear down a healthy connection, and —
// worse — feed the missing alive() into the detector as spurious suspicion
// of a peer that just answered. EOF or a reset on an idle connection — the
// peer died, and may be back on its address — sends the request once more
// on a fresh dial (every peer request is safe to repeat); a timeout does not.
func (p *pool) exchange(addr string, run func(*server.Client) error) error {
	c, idle, err := p.lend(addr)
	for err == nil {
		if err = run(c); err == nil || server.IsReplyErr(err) {
			p.giveBack(addr, c)
			if p.alive != nil {
				p.alive(addr)
			}
			return err
		}
		c.Close()
		p.closeIdle(addr)
		if !idle || !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
			return err
		}
		idle = false
		c, err = p.dial(addr)
	}
	return err
}

// errStale marks a request the peer refused with -STALE: its map differs
// from the one the request was made under (XFER: its height is greater). The
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

// asSync folds a "-ERR sync: …" reply into ErrSync.
func asSync(err error) error {
	if cause, ok := strings.CutPrefix(fmt.Sprint(err), "sync: "); ok && server.IsReplyErr(err) {
		return fmt.Errorf("%w: %s", ErrSync, cause)
	}
	return err
}

// do runs one command against addr.
func (p *pool) do(addr string, parts ...string) (reply string, err error) {
	err = p.exchange(addr, func(c *server.Client) (err error) {
		reply, err = c.Do(parts...)
		return err
	})
	return reply, err
}

// fetchMap pulls the cluster map addr holds: the package's one CLUSTER MAP
// request, shared by a node's reconcileMap and by ClusterClient.
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

// pipeline sends cmds to addr as one pipelined batch and returns one
// Result per command. Per-command protocol errors (e.g. a missing key)
// land in the individual Results.
func (p *pool) pipeline(addr string, cmds [][]string) (results []server.Result, err error) {
	err = p.exchange(addr, func(c *server.Client) (err error) {
		pl := c.Pipeline()
		for _, parts := range cmds {
			pl.Do(parts...)
		}
		results, err = pl.Exec()
		return err
	})
	return results, err
}

// mlAdd is one forwarded write to the peer at addr: one CLUSTER MLADD
// line, written once into the buffer it is sent from, carrying a plain add
// of the token batch or, when n > 0, a windowed add of the batch of n
// elements observed at tsMillis. It returns the owner's answer — a plain
// add's changed-bit (0 or 1), a windowed add's accepted count. An owner
// that refuses the batch (a key of another type or sketch configuration)
// answers an error reply that parses as server.ErrWrongType.
func (p *pool) mlAdd(addr, key string, batch *core.Hybrid, tsMillis int64, n int) (int, error) {
	p.mlLines.Add(1)
	var reply string
	err := p.exchange(addr, func(c *server.Client) (err error) {
		reply, err = c.DoLine(func(line []byte) []byte {
			if n > 0 {
				line = append(append(line, "CLUSTER MLADD w "...), key...)
				line = strconv.AppendInt(append(line, ' '), tsMillis, 10)
				line = strconv.AppendInt(append(line, ' '), int64(n), 10)
			} else {
				line = append(append(line, "CLUSTER MLADD p "...), key...)
			}
			line = appendBatch(append(line, ' '), batch)
			p.mlBytes.Add(uint64(len(line) + 1)) // and the line break
			return line
		})
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("cluster: add %q on %s: %w", key, addr, err)
	}
	v, err := strconv.Atoi(reply)
	if err != nil {
		return 0, fmt.Errorf("cluster: MLADD to %s replied %q", addr, reply)
	}
	return v, nil
}

// appendBatch appends the base64 of the batch's MarshalBinary bytes to
// line. A batch of up to some 300 tokens is marshaled on the stack, so the
// line holds the only copy on the heap.
func appendBatch(line []byte, batch *core.Hybrid) []byte {
	var raw [mlAddRawBytes]byte
	blob, _ := batch.AppendBinary(raw[:0]) // appending a sketch's bytes cannot fail
	return base64.StdEncoding.AppendEncode(line, blob)
}

// closeAll closes every idle connection, and each lent one as it comes
// back.
func (p *pool) closeAll() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, free := range idle {
		for _, c := range free {
			c.Close()
		}
	}
}
