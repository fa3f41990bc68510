package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitBuffersHeld waits for the pool's checked-out count to settle at want:
// a server connection gives its buffers back just after the flush that lets
// its client return.
func waitBuffersHeld(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for bufPool.held.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers checked out, want %d", bufPool.held.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the pool's victim cache goes on the second
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdleConnectionsHoldNoBuffers: a connection that has served a
// pipelined burst and gone quiet holds neither end's 64 KB buffers. Both
// ends live in this process, so the bound is on the pair: a connCtx with
// its idle arrays, a Client, two sockets and a goroutine (192 KB when the
// buffers were owned for life).
func TestIdleConnectionsHoldNoBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	srv, _ := startServer(t)
	held0 := bufPool.held.Load()
	const conns = 256
	clients := make([]*Client, conns)
	before := liveHeap()
	for i := range clients {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		p := c.Pipeline()
		for j := 0; j < 32; j++ {
			p.PFAdd("k", fmt.Sprintf("el-%d-%d-%s", i, j, strings.Repeat("x", 40)))
		}
		if _, err := p.Exec(); err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	waitBuffersHeld(t, held0)
	perPair := float64(liveHeap()-before) / conns
	t.Logf("%.0f live heap bytes per idle connection, both ends", perPair)
	if perPair > 4096 {
		t.Errorf("an idle connection holds %.0f bytes over its two ends, want < 2 KB each", perPair)
	}
	runtime.KeepAlive(clients)
}

// TestBurstsAndIdleShareThePool alternates 64 connections between idle,
// depth 1 and depth-32 bursts, every command echoing a token only its
// connection sends: a buffer handed to two connections at once, or given
// back while replies still lie in it, answers someone with another's bytes
// (and trips the race detector).
func TestBurstsAndIdleShareThePool(t *testing.T) {
	store := newTestStore(t)
	srv := NewServer(store)
	srv.Handle("ECHO", 0, -1, "", func(reply []byte, args [][]byte) []byte {
		return append(append(reply, '+'), bytes.Join(args, []byte(" "))...)
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	held0 := bufPool.held.Load()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			pad := strings.Repeat("p", 16*(i%40)) // some bursts fit the idle array, most do not
			for round := 0; round < 12; round++ {
				p := c.Pipeline()
				for j := 0; j < 32; j++ {
					p.Do("ECHO", fmt.Sprintf("c%d-r%d-%d", i, round, j), pad+"x")
				}
				results, err := p.Exec()
				if err != nil {
					t.Error(err)
					return
				}
				for j, r := range results {
					if want := fmt.Sprintf("c%d-r%d-%d %sx", i, round, j, pad); r.Err != nil || r.Value != want {
						t.Errorf("connection %d round %d reply %d = %q, %v; want %q", i, round, j, r.Value, r.Err, want)
						return
					}
				}
				tok := fmt.Sprintf("c%d-r%d-alone", i, round)
				if got, err := c.Do("ECHO", tok); err != nil || got != tok {
					t.Errorf("connection %d depth-1 reply %q, %v; want %q", i, got, err, tok)
					return
				}
				time.Sleep(time.Duration(i%3) * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	waitBuffersHeld(t, held0)
}

// TestClientFailureIsSticky: an operation whose deadline trips leaves its
// late reply in the stream, so the client must fail every later operation
// rather than hand that reply to the next command.
func TestClientFailureIsSticky(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // answers every line 150 ms late
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			time.Sleep(150 * time.Millisecond)
			if _, err := io.WriteString(conn, "+late-reply-to-"+line); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	held0 := bufPool.held.Load()
	c.SetOpTimeout(30 * time.Millisecond)
	_, first := c.Do("FIRST")
	if first == nil || IsReplyErr(first) {
		t.Fatalf("Do past its deadline returned %v, want a transport error", first)
	}
	time.Sleep(300 * time.Millisecond) // the late reply is in the socket now
	c.SetOpTimeout(time.Second)
	if reply, err := c.Do("SECOND"); err != first {
		t.Errorf("Do after a transport failure returned %q, %v; want the first error again", reply, err)
	}
	p := c.Pipeline()
	p.Do("THIRD")
	if results, err := p.Exec(); err != first {
		t.Errorf("Exec after a transport failure returned %v, %v; want the first error again", results, err)
	}
	waitBuffersHeld(t, held0)
}

// TestClientRefusesUnsolicitedBytes: a peer that sends more than one line
// for one command has desynchronized the stream; the surplus must not wait
// in a buffer for the next command to read.
func TestClientRefusesUnsolicitedBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			if _, err := io.WriteString(conn, "+one\n+two\n"); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if reply, err := c.Do("ANY"); err == nil {
		t.Errorf("Do returned %q with a second reply line pending", reply)
	}
	if reply, err := c.Do("NEXT"); err == nil {
		t.Errorf("the next Do read %q from a desynchronized stream", reply)
	}
}

// TestPipelineGivesItsBufferBack: one huge batch must not size a long-lived
// pipeline for good, an executed pipeline holds nothing, and queued
// commands hold nothing of the pool — only Exec takes a buffer.
func TestPipelineGivesItsBufferBack(t *testing.T) {
	_, c := startServer(t)
	held0 := bufPool.held.Load()
	p := c.Pipeline()
	big := strings.Repeat("e", 200)
	for round := 0; round < 2; round++ {
		for j := 0; j < 2000; j++ { // 400 KB of commands: larger than a pooled buffer
			p.PFAdd("k", fmt.Sprintf("%s-%d", big, j))
		}
		if bufPool.held.Load() != held0 {
			t.Fatalf("a pipeline with queued commands holds %d pooled buffers, want 0", bufPool.held.Load()-held0)
		}
		results, err := p.Exec()
		if err != nil || len(results) != 2000 {
			t.Fatalf("Exec: %d results, %v", len(results), err)
		}
		if p.buf != nil {
			t.Errorf("an executed pipeline keeps a %d-byte buffer", cap(p.buf))
		}
		waitBuffersHeld(t, held0)
	}
}

// TestAbandonedPipelineHoldsNoBuffer: a pipeline dropped with commands
// queued, its client then closed, leaves the conn_buffers_held gauge where
// it was.
func TestAbandonedPipelineHoldsNoBuffer(t *testing.T) {
	srv, _ := startServer(t)
	held0 := bufPool.held.Load()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline()
	for j := 0; j < 32; j++ {
		p.PFAdd("k", fmt.Sprintf("el-%d", j))
	}
	p.WAdd("w", baseMS, "x")
	if p.Len() != 33 {
		t.Fatalf("%d commands queued, want 33", p.Len())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitBuffersHeld(t, held0)
}

// TestConnBufferGaugesAreExposed: STATS and /metrics carry the two pool
// gauges, and a connection in the middle of a burst shows up in them.
func TestConnBufferGaugesAreExposed(t *testing.T) {
	srv, c := startServer(t)
	reply, err := c.Do("STATS")
	if err != nil {
		t.Fatal(err)
	}
	summary, _, _ := strings.Cut(reply, "; ")
	for _, name := range []string{"conn_buffers_held=", "conn_buffer_bytes="} {
		if !strings.Contains(summary, " "+name) {
			t.Errorf("STATS summary row %q lacks %s", summary, name)
		}
	}
	// The reply was rendered while this client held its buffer.
	if strings.Contains(summary, " conn_buffers_held=0 ") {
		t.Errorf("STATS summary row %q shows no buffer held during a command", summary)
	}
	var out bytes.Buffer
	srv.WriteMetrics(&out)
	for _, row := range []string{"# TYPE ell_conn_buffers_held gauge\nell_conn_buffers_held ", "# TYPE ell_conn_buffer_bytes gauge\nell_conn_buffer_bytes "} {
		if !strings.Contains(out.String(), row) {
			t.Errorf("/metrics lacks %q", row)
		}
	}
}

// burstReader hands out one burst per Read (or what of it fits), like a
// client that waits for its replies between bursts.
type burstReader struct {
	bursts [][]byte
	i, off int
}

func (r *burstReader) Read(p []byte) (int, error) {
	if r.i == len(r.bursts) {
		return 0, io.EOF
	}
	n := copy(p, r.bursts[r.i][r.off:])
	if r.off += n; r.off == len(r.bursts[r.i]) {
		r.i, r.off = r.i+1, 0
	}
	return n, nil
}

// TestServeLoopZeroAlloc: the fast paths stay allocation-free through the
// whole serve loop, at depth 1 (every command served from the idle arrays
// and released after) and in bursts that take and return pooled buffers —
// a two-word verb's resolution through its first word's sub-table too.
func TestServeLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	srv := NewServer(newTestStore(t))
	srv.Handle("TEST ECHO", 1, 1, "-ERR TEST ECHO needs one token", func(reply []byte, args [][]byte) []byte {
		return append(append(reply, '+'), args[0]...)
	})
	var cmds [][]byte
	for i := 0; i < 32; i++ {
		cmds = append(cmds,
			[]byte(fmt.Sprintf("PFADD key el-%d\n", i)),
			[]byte(fmt.Sprintf("WADD wkey %d el-%d\n", 1_750_000_000_000+int64(i), i)),
			[]byte("PFCOUNT key\n"),
			[]byte(fmt.Sprintf("test echo el-%d\n", i)))
	}
	for name, lines := range map[string][][]byte{
		"depth 1":  cmds,
		"depth 96": {bytes.Join(cmds, nil)},
	} {
		src := &burstReader{bursts: lines}
		cc := newConnCtx(srv, src, io.Discard)
		cc.serve() // create the keys, record the tokens, fill the pool
		avg := testing.AllocsPerRun(100, func() {
			src.i = 0
			cc.serve()
		})
		if avg != 0 {
			t.Errorf("%s: serving %d fast-path commands allocates %.2f times, want 0", name, len(cmds), avg)
		}
	}
	if v := srv.Stats().Verb("TEST.ECHO"); v == nil || v.Calls() == 0 || v.Errs() != 0 {
		t.Errorf("the two-word verb was not served by its own entry: %+v", v)
	}
}
