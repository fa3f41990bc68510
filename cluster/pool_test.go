package cluster

import (
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"exaloglog/server"
)

// idleConns returns the connections to addr on p's free list.
func (p *pool) idleConns(addr string) []*server.Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.idle[addr])
}

// TestPoolLendsConnections: a request has its connection to itself for the
// round trip, so a forwarded write to a peer completes while another
// request to that peer is parked on the wire — on a connection the pool
// dials beside the parked one, which both go back to the idle list. One
// transport failure closes every idle connection to the peer, and the
// first request after the heal dials once.
func TestPoolLendsConnections(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 2, replicas: 2})
	n1, n2 := h.node("n1"), h.node("n2")
	p, to := n1.peers, n2.Addr()
	var dials atomic.Int64
	connect := p.connect
	p.connect = func(addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		return connect(addr, timeout)
	}
	if _, err := p.do(to, "PING"); err != nil {
		t.Fatal(err)
	}

	release := h.fab.gate(n1.ID(), "MAP")
	parked := make(chan error, 1)
	go func() {
		_, err := p.fetchMap(to)
		parked <- err
	}()
	for len(p.idleConns(to)) > 0 { // until the parked request holds the PING's connection
		time.Sleep(time.Millisecond)
	}
	written := make(chan error, 1)
	go func() {
		_, err := n1.Add("beside-the-parked", "x")
		written <- err
	}()
	select {
	case err := <-written:
		if err != nil {
			t.Fatalf("the forwarded write beside a parked request: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the forwarded write queued behind the parked request")
	}
	select {
	case err := <-parked:
		t.Fatalf("the parked request returned before its gate opened: %v", err)
	default:
	}
	release()
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if idle := len(p.idleConns(to)); idle != 2 {
		t.Fatalf("%d idle connections after two requests at once, want 2", idle)
	}

	h.fab.partition(n2.ID(), true)
	if _, err := p.do(to, "PING"); err == nil || server.IsReplyErr(err) {
		t.Fatalf("PING across a cut = %v, want a transport error", err)
	}
	if idle := len(p.idleConns(to)); idle != 0 {
		t.Errorf("%d idle connections after a transport failure, want 0", idle)
	}
	h.fab.partition(n2.ID(), false)
	before := dials.Load()
	if reply, err := p.do(to, "PING"); err != nil || reply != "PONG" {
		t.Fatalf("PING after the heal = %q, %v; want PONG", reply, err)
	}
	if got := dials.Load() - before; got != 1 {
		t.Errorf("the first request after the heal dialed %d times, want 1", got)
	}
}
