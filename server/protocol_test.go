package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"exaloglog/internal/core"
)

// rawConn dials the server and returns the raw connection plus a reader,
// bypassing the Client's protocol handling.
func rawConn(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

// TestProtocolGarbage feeds malformed input; the server must answer every
// line with an error (or ignore blank lines) and keep the connection
// usable.
func TestProtocolGarbage(t *testing.T) {
	srv, _ := startServer(t)
	conn, r := rawConn(t, srv)
	lines := []string{
		"\x00\x01\x02\xff binary junk",
		"PFADD",            // missing args
		"pfadd someKey v1", // lowercase verb must work
		"   ",              // whitespace only: ignored, no reply
		"PFCOUNT someKey",
	}
	fmt.Fprint(conn, strings.Join(lines, "\n")+"\n")
	want := []string{"-ERR", "-ERR", ":1", ":1"}
	for i, prefix := range want {
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !strings.HasPrefix(reply, prefix) {
			t.Fatalf("reply %d = %q, want prefix %q", i, reply, prefix)
		}
	}
}

// TestProtocolPipelining sends many commands in one write; replies must
// come back in order.
func TestProtocolPipelining(t *testing.T) {
	srv, _ := startServer(t)
	conn, r := rawConn(t, srv)
	var b strings.Builder
	const n = 100
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "PFADD pipekey el-%d\n", i)
	}
	b.WriteString("PFCOUNT pipekey\n")
	fmt.Fprint(conn, b.String())
	for i := 0; i < n; i++ {
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if reply != ":1\n" {
			t.Fatalf("PFADD %d reply %q", i, reply)
		}
	}
	reply, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if reply != fmt.Sprintf(":%d\n", n) {
		t.Fatalf("PFCOUNT reply %q, want :%d", reply, n)
	}
}

// TestProtocolPipelinedBurstMixed sends one large single-write burst
// mixing every fast-path and slow-path verb plus blank and erroneous
// lines, and checks that exactly one reply comes back per non-blank
// command, in order. This pins the coalesced-flush path: the server
// may batch the replies into few writes, but never reorder, drop or
// duplicate one.
func TestProtocolPipelinedBurstMixed(t *testing.T) {
	srv, _ := startServer(t)
	conn, r := rawConn(t, srv)
	var b strings.Builder
	var want []string // reply prefixes, in order
	const rounds = 200
	for i := 0; i < rounds; i++ {
		fmt.Fprintf(&b, "PFADD burst el-%d\n", i)
		want = append(want, ":") // :1 or (rarely, per sketch semantics) :0
		if i%10 == 3 {
			b.WriteString("   \n") // blank: ignored, no reply
		}
		if i%10 == 5 {
			b.WriteString("PFCOUNT burst\n")
			want = append(want, ":")
		}
		if i%10 == 7 {
			// The typed error and PONG anchor positional alignment:
			// a dropped or duplicated reply shifts them onto the
			// wrong prefix.
			b.WriteString("PFADD\n")
			want = append(want, "-ERR")
			b.WriteString("PING\n")
			want = append(want, "+PONG")
		}
	}
	b.WriteString("PFCOUNT burst\nQUIT\n")
	want = append(want, ":", "+BYE")
	if _, err := fmt.Fprint(conn, b.String()); err != nil {
		t.Fatal(err)
	}
	var finalCount string
	for i, prefix := range want {
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d/%d: %v", i+1, len(want), err)
		}
		if !strings.HasPrefix(reply, prefix) {
			t.Fatalf("reply %d = %q, want prefix %q", i, reply, prefix)
		}
		if i == len(want)-2 {
			finalCount = strings.TrimSpace(reply[1:])
		}
	}
	var n int
	if _, err := fmt.Sscan(finalCount, &n); err != nil || n < rounds*95/100 || n > rounds*105/100 {
		t.Errorf("final PFCOUNT = %q, want ≈%d", finalCount, rounds)
	}
	if extra, err := r.ReadString('\n'); err == nil {
		t.Fatalf("unexpected extra reply %q after QUIT", extra)
	}
}

// TestProtocolHugeLine: a line beyond the scanner's 16 MiB cap must not
// crash the server; the connection may drop but the server stays up.
func TestProtocolHugeLine(t *testing.T) {
	srv, _ := startServer(t)
	conn, _ := rawConn(t, srv)
	huge := strings.Repeat("x", 20<<20)
	fmt.Fprintf(conn, "PFADD key %s\n", huge)
	conn.Close()
	// Server must still accept fresh connections.
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatalf("server unusable after huge line: %v", err)
	}
}

// TestRestoreCrossConfig: a sketch serialized with a different (t-equal)
// configuration restores fine and PFCOUNT aligns it via reduction.
func TestRestoreCrossConfig(t *testing.T) {
	srv, c := startServer(t)
	_ = srv
	// Build a p=10 sketch (server default is p=12) out-of-band.
	foreign := core.MustNew(core.Config{T: 2, D: 20, P: 10})
	for i := 0; i < 1000; i++ {
		foreign.AddString(fmt.Sprintf("f-%d", i))
	}
	blob, err := foreign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := restore(c, "foreign", blob); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PFAdd("native", "f-0", "f-1", "extra"); err != nil {
		t.Fatal(err)
	}
	n, err := c.PFCount("foreign", "native")
	if err != nil {
		t.Fatal(err)
	}
	// Union ≈ 1001 (1000 foreign + "extra"), p=10 accuracy ≈ 3.6 %.
	if n < 900 || n > 1100 {
		t.Fatalf("cross-config union = %d, want ≈1001", n)
	}
	// Restoring a sketch with a different t must fail to count together.
	otherT := core.MustNew(core.Config{T: 0, D: 2, P: 10})
	otherT.AddString("x")
	blob2, _ := otherT.MarshalBinary()
	if err := restore(c, "ull", blob2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PFCount("ull", "native"); err == nil {
		t.Error("counting across different t succeeded, want error")
	}
}

// TestCorruptRestorePayloads exercises the deserialization error paths
// end to end over the wire.
func TestCorruptRestorePayloads(t *testing.T) {
	_, c := startServer(t)
	good := core.MustNew(core.RecommendedML(4))
	good.AddString("a")
	blob, _ := good.MarshalBinary()
	for name, corrupt := range map[string][]byte{
		"empty":       {},
		"short":       blob[:4],
		"bad magic":   append([]byte("XX"), blob[2:]...),
		"bad version": append([]byte{'E', 'L', 99}, blob[3:]...),
		"bad params":  append([]byte{'E', 'L', 1, 99, 99, 99}, blob[6:]...),
		"truncated":   blob[:len(blob)-1],
	} {
		if err := restore(c, "corrupt", corrupt); err == nil {
			t.Errorf("RESTORE of %s payload succeeded", name)
		}
	}
}
