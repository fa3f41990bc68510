package cluster

// The fabric is the in-memory network the package's tests run their nodes
// on. It maps addresses to listeners, hands every dial a pair of in-memory
// connection ends, and owns every fault a test injects: a partition, a
// per-verb delay, a gate, an intercept, a stalled endpoint. A crash is a
// node's Close, which frees its address at once, so a restart binds the
// same address without waiting for a port. Only TestClusterAcceptance, the
// Examples and the benchmarks still listen on loopback TCP: they show the
// real socket path end to end, and the benchmarks' numbers stay comparable
// with those recorded before.
//
// Faults act on requests: each Write on a connection a node dialed — or a
// named client, see dialer — is checked line by line before any byte of it
// goes out, so a refused line fails the whole request (a pipeline, a
// transfer window) with a transport error, and a parked line holds the
// connection as a full socket would. Replies, and connections dialed with
// no name (an operator's), pass unchecked.
//
// A request travels as a rendezvous: Write returns once the server has
// read every byte, or at the write deadline. Replies are buffered, so a
// server that answers a pipeline while the client is still writing it
// never waits on that client.
//
// Each harness owns a fabric, made with it and gone when its test ends:
// addresses, listeners and faults are the harness's own, so no fault
// outlives its test or reaches another cluster, and cluster tests run in
// parallel.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exaloglog/server"
)

type fabric struct {
	mu        sync.Mutex
	next      int                      // the last fresh address handed out
	listeners map[string]*memListener  // by address
	ids       map[string]string        // address → the node last listening there
	cut       map[string]bool          // node IDs partitioned from every peer
	delays    map[string]time.Duration // CLUSTER subverb → a delay of every such line
	gates     map[string]chan struct{} // "<id> <SUBVERB>" → such lines from id park until it is closed
	intercept func(from, to string, parts []string) error
}

// newFabric returns a fabric without listeners or faults.
func newFabric() *fabric {
	return &fabric{
		listeners: make(map[string]*memListener),
		ids:       make(map[string]string),
		cut:       make(map[string]bool),
		delays:    make(map[string]time.Duration),
		gates:     make(map[string]chan struct{}),
	}
}

// openGates releases every gate still shut.
func (f *fabric) openGates() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for key, g := range f.gates {
		close(g)
		delete(f.gates, key)
	}
}

// listen binds a listener for node id at addr, or at a fresh address when
// addr is "".
func (f *fabric) listen(id, addr string) (net.Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if addr == "" {
		f.next++
		addr = fmt.Sprintf("mem:%d", f.next)
	}
	if f.listeners[addr] != nil {
		return nil, fmt.Errorf("fabric: %s is in use", addr)
	}
	ln := &memListener{f: f, addr: memAddr(addr), conns: make(chan net.Conn), done: make(chan struct{})}
	f.listeners[addr] = ln
	f.ids[addr] = id
	return ln, nil
}

// dialer is the transport of node (or client) from: every request it
// sends meets the fabric's faults. A client's name must be no node's ID.
func (f *fabric) dialer(from string) dialer {
	return func(addr string, _ time.Duration) (net.Conn, error) { return f.dial(from, addr) }
}

// dial connects from to the listener at addr; from "" is an operator,
// whom no fault touches.
func (f *fabric) dial(from, addr string) (net.Conn, error) {
	f.mu.Lock()
	ln := f.listeners[addr]
	f.mu.Unlock()
	if ln != nil {
		up, down := &pipe{change: make(chan struct{})}, &pipe{buffered: true, change: make(chan struct{})}
		client := &memConn{in: down, out: up, local: memAddr("client:" + from), remote: ln.addr}
		server := &memConn{in: up, out: down, local: ln.addr, remote: client.local}
		if from != "" {
			client.admit = func(b []byte) error { return f.admit(from, addr, b) }
		}
		select {
		case ln.conns <- server:
			return client, nil
		case <-ln.done:
		}
	}
	return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: errors.New("connection refused")}
}

// admit checks every line of a request from node from to addr against the
// faults: a partition refuses it, a gate parks it, a delay sleeps, and the
// intercept sees it last.
func (f *fabric) admit(from, to string, b []byte) error {
	for len(b) > 0 {
		var line []byte
		line, b, _ = bytes.Cut(b, []byte{'\n'})
		f.mu.Lock()
		blocked := f.cut[from] || f.cut[f.ids[to]]
		intercept, faulty := f.intercept, len(f.delays)+len(f.gates) > 0
		f.mu.Unlock()
		if blocked {
			return fmt.Errorf("fabric: network partition between %s and %s", from, to)
		}
		if intercept == nil && !faulty {
			continue
		}
		parts := strings.Fields(string(line))
		var delay time.Duration
		var gate chan struct{}
		if len(parts) >= 2 && strings.EqualFold(parts[0], "CLUSTER") {
			verb := strings.ToUpper(parts[1])
			f.mu.Lock()
			delay, gate = f.delays[verb], f.gates[from+" "+verb]
			f.mu.Unlock()
		}
		if gate != nil {
			<-gate
		}
		time.Sleep(delay)
		if intercept != nil {
			if err := intercept(from, to, parts); err != nil {
				return err
			}
		}
	}
	return nil
}

// partition cuts node id off from all peer traffic, both directions, or
// heals it.
func (f *fabric) partition(id string, cut bool) {
	f.mu.Lock()
	f.cut[id] = cut
	f.mu.Unlock()
}

// delay makes every node's CLUSTER <verb> lines sleep d before they go out
// (0 clears it).
func (f *fabric) delay(verb string, d time.Duration) {
	f.mu.Lock()
	f.delays[strings.ToUpper(verb)] = d
	f.mu.Unlock()
}

// gate parks every CLUSTER <verb> line from node id until the returned
// release is called — an ordering primitive: unlike delay it enforces a
// happens-before edge instead of racing a timer.
func (f *fabric) gate(id, verb string) (release func()) {
	ch := make(chan struct{})
	key := id + " " + strings.ToUpper(verb)
	f.mu.Lock()
	f.gates[key] = ch
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.gates[key] == ch {
			delete(f.gates, key)
			close(ch)
		}
	}
}

// setIntercept installs fn, shown every request line a node or a named
// client sends (after the partition, gate and delay faults): the surgical
// fault, which can count lines or fail or park exactly the Nth transfer
// frame. A non-nil error fails the line's whole request. nil clears it.
func (f *fabric) setIntercept(fn func(from, to string, parts []string) error) {
	f.mu.Lock()
	f.intercept = fn
	f.mu.Unlock()
}

// stall binds addr, for node id, to a black hole: it accepts connections
// and reads them forever without replying — the peer that, before I/O
// deadlines, hung every forward touching it.
func (f *fabric) stall(t testing.TB, id, addr string) {
	t.Helper()
	ln, err := f.listen(id, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(io.Discard, c)
			}()
		}
	}()
}

// memListener is a listener on the fabric.
type memListener struct {
	f     *fabric
	addr  memAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.f.mu.Lock()
		if l.f.listeners[string(l.addr)] == l {
			delete(l.f.listeners, string(l.addr))
		}
		l.f.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memConn is one end of a fabric connection.
type memConn struct {
	in, out       *pipe
	rd, wd        deadline
	local, remote memAddr
	admit         func(b []byte) error // the faults a request meets; nil: none
}

func (c *memConn) Read(b []byte) (int, error) { return c.in.read(b, &c.rd) }

func (c *memConn) Write(b []byte) (int, error) {
	if c.admit != nil {
		if err := c.admit(b); err != nil {
			return 0, err
		}
	}
	return c.out.write(b, &c.wd)
}

func (c *memConn) Close() error {
	c.in.closeRead()
	c.out.closeWrite()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

func (c *memConn) SetDeadline(t time.Time) error {
	c.rd.set(t)
	c.wd.set(t)
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error  { c.rd.set(t); return nil }
func (c *memConn) SetWriteDeadline(t time.Time) error { c.wd.set(t); return nil }

// pipe is one direction of a fabric connection. A buffered pipe queues
// what is written; any other hands the writer's bytes to the reader and
// holds the writer until they are all read.
type pipe struct {
	buffered bool
	wmu      sync.Mutex // one Write at a time

	mu     sync.Mutex
	buf    []byte        // written, not yet read
	eof    bool          // the writing end closed: reads drain buf, then see io.EOF
	gone   bool          // the reading end closed: writes fail
	change chan struct{} // closed and renewed whenever the fields above change
}

// signal wakes every waiter; callers hold p.mu.
func (p *pipe) signal() {
	close(p.change)
	p.change = make(chan struct{})
}

func (p *pipe) read(b []byte, dl *deadline) (int, error) {
	for {
		p.mu.Lock()
		switch {
		case p.gone:
			p.mu.Unlock()
			return 0, net.ErrClosed
		case len(p.buf) > 0:
			n := copy(b, p.buf)
			if p.buf = p.buf[n:]; len(p.buf) == 0 {
				p.buf = nil // what was read is garbage, as in a socket
			}
			p.signal()
			p.mu.Unlock()
			return n, nil
		case p.eof:
			p.mu.Unlock()
			return 0, io.EOF
		}
		wait := p.change
		p.mu.Unlock()
		select {
		case <-wait:
		case <-dl.expired():
			return 0, os.ErrDeadlineExceeded
		}
	}
}

func (p *pipe) write(b []byte, dl *deadline) (int, error) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.eof || p.gone {
		return 0, io.ErrClosedPipe
	}
	if p.buffered {
		p.buf = append(p.buf, b...)
		p.signal()
		return len(b), nil
	}
	p.buf = b
	p.signal()
	var err error
	for len(p.buf) > 0 && err == nil {
		if p.eof || p.gone {
			err = io.ErrClosedPipe
			break
		}
		wait := p.change
		p.mu.Unlock()
		select {
		case <-wait:
		case <-dl.expired():
			err = os.ErrDeadlineExceeded
		}
		p.mu.Lock()
	}
	n := len(b) - len(p.buf)
	p.buf = nil // the caller may reuse b
	return n, err
}

func (p *pipe) closeWrite() {
	p.mu.Lock()
	p.eof = true
	p.signal()
	p.mu.Unlock()
}

func (p *pipe) closeRead() {
	p.mu.Lock()
	p.gone = true
	p.signal()
	p.mu.Unlock()
}

// deadline is one of a connection's deadlines: the channel expired returns
// is closed once it has passed (nil, never closed, until one is set).
type deadline struct {
	mu    sync.Mutex
	timer *time.Timer
	ch    chan struct{}
}

func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.ch // the timer fired: wait until it has closed the channel
	}
	d.timer = nil
	if d.ch == nil || isClosed(d.ch) {
		d.ch = make(chan struct{})
	}
	switch dur := time.Until(t); {
	case t.IsZero():
	case dur > 0:
		ch := d.ch
		d.timer = time.AfterFunc(dur, func() { close(ch) })
	default:
		close(d.ch)
	}
}

func (d *deadline) expired() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ch
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// --- the fabric's own tests ---------------------------------------------

// TestFabricCarriesLongPipeline: a thousand pipelined commands cross one
// fabric connection in one Write. The server flushes its replies whenever
// its input runs dry, so over an unbuffered pipe each way it would block
// on a client still writing.
func TestFabricCarriesLongPipeline(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 1, replicas: 1})
	c := h.dial(h.addr("n1"))
	c.SetOpTimeout(2 * time.Second)
	var lines []byte
	for i := 0; i < 1000; i++ {
		lines = fmt.Appendf(lines, "PFADD pipe-%d a b\n", i)
	}
	results, err := c.DoLines(lines, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Value != "1" {
			t.Fatalf("reply %d = %q, %v; want 1", i, r.Value, r.Err)
		}
	}
	if n, err := c.PFCount("pipe-999"); err != nil || n != 2 {
		t.Errorf("PFCOUNT after the pipeline = %d, %v; want 2", n, err)
	}
}

// TestFabricCutThenHeal: a partition fails a peer request with a transport
// error, which closes the lent connection; after the heal the pool dials
// again and the request goes through.
func TestFabricCutThenHeal(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 2, replicas: 1})
	p := h.node("n1").peers
	to := h.addr("n2")
	if _, err := p.do(to, "PING"); err != nil {
		t.Fatal(err)
	}
	h.fab.partition("n2", true)
	_, err := p.do(to, "PING")
	if err == nil || server.IsReplyErr(err) {
		t.Fatalf("PING across a cut = %v, want a transport error", err)
	}
	if idle := p.idleConns(to); len(idle) != 0 {
		t.Error("the pool kept the connection a cut failed")
	}
	h.fab.partition("n2", false)
	if reply, err := p.do(to, "PING"); err != nil || reply != "PONG" {
		t.Fatalf("PING after the heal = %q, %v; want PONG", reply, err)
	}
}

// TestFabricStallTripsOpTimeout: an endpoint that reads and never answers
// fails a command at the client's op deadline with a timeout, not a reply.
func TestFabricStallTripsOpTimeout(t *testing.T) {
	// Serial: it bounds wall time, which parallel tests would stretch.
	h := newHarness(t, harnessOpts{})
	h.fab.stall(t, "", "mem:stalled")
	c := h.dial("mem:stalled")
	const d = 50 * time.Millisecond
	c.SetOpTimeout(d)
	start := time.Now()
	_, err := c.Do("PING")
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("PING to a stalled endpoint = %v, want a timeout", err)
	}
	if took := time.Since(start); took < d || took > 40*d {
		t.Errorf("the op deadline tripped after %v, want about %v", took, d)
	}
}

// TestFabricsShareNothing: two harnesses in one test, their nodes of the
// same IDs at the same addresses. The first is cut, gated and intercepted,
// a request of its own parked at the gate, while the second writes, counts,
// pulls a map and takes a JOIN untouched; then the first's faults still
// hold its own requests.
func TestFabricsShareNothing(t *testing.T) {
	t.Parallel()
	a := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	b := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	if a.addr("n1") != "mem:1" || b.addr("n1") != "mem:1" {
		t.Fatalf("n1 listens at %s and at %s, want mem:1 in both harnesses", a.addr("n1"), b.addr("n1"))
	}
	a.fab.partition("n2", true)
	release := a.fab.gate("n1", "MAP")
	var seen atomic.Int64
	a.fab.setIntercept(func(string, string, []string) error {
		seen.Add(1)
		return errors.New("test: refused by the first fabric")
	})
	parked := make(chan error, 1)
	go func() {
		_, err := a.node("n1").peers.fetchMap(a.addr("n3"))
		parked <- err
	}()

	// A key of n2's and not n1's: the write forwards to n2, the count gathers it.
	key := findKeyWhere(t, b.node("n1").Map(), func(ids []string) bool {
		return slices.Contains(ids, "n2") && !slices.Contains(ids, "n1")
	})
	if _, err := b.node("n1").Add(key, "x", "y"); err != nil {
		t.Fatalf("Add in the second harness: %v", err)
	}
	if got := mustCount(t, b.node("n1"), key); int64(got+0.5) != 2 {
		t.Errorf("Count in the second harness = %v, want ≈2", got)
	}
	if _, err := b.node("n1").peers.fetchMap(b.addr("n3")); err != nil {
		t.Errorf("n1's map pull in the second harness: %v", err)
	}
	if err := b.start("x1").Join(b.addr("n1")); err != nil {
		t.Fatalf("JOIN in the second harness: %v", err)
	}
	if got := b.node("n2").Map().Len(); got != 4 {
		t.Errorf("the second harness's n2 lists %d members after the JOIN, want 4", got)
	}
	if n := seen.Load(); n != 0 {
		t.Errorf("the first fabric's intercept saw %d lines", n)
	}

	select {
	case err := <-parked:
		t.Fatalf("the first harness's gated map pull returned before its release: %v", err)
	default:
	}
	release()
	if err := <-parked; err == nil || !strings.Contains(err.Error(), "refused by the first fabric") {
		t.Errorf("the gated map pull after its release: %v, want the first intercept's refusal", err)
	}
	if _, err := a.node("n1").peers.do(a.addr("n2"), "PING"); err == nil || !strings.Contains(err.Error(), "network partition") {
		t.Errorf("PING across the first harness's cut: %v, want the partition", err)
	}
}
