package server

import (
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"exaloglog/internal/core"
)

// TestClientRejectsBadTokens: an element containing whitespace would be
// split into several elements (or injected as a second command) on the
// wire; the client must refuse to send it instead of silently
// corrupting the stream.
func TestClientRejectsBadTokens(t *testing.T) {
	_, c := startServer(t)
	bad := []string{"a b", "a\tb", "a\nb", "a\rb", ""}
	for _, el := range bad {
		if _, err := c.PFAdd("key", el); err == nil {
			t.Errorf("PFAdd with element %q succeeded", el)
		}
		if _, err := c.PFAdd(el, "ok"); err == nil {
			t.Errorf("PFAdd with key %q succeeded", el)
		}
		if _, err := c.PFCount(el); err == nil {
			t.Errorf("PFCount with key %q succeeded", el)
		}
	}
	if _, err := c.Do(); err == nil {
		t.Error("empty Do succeeded")
	}
	// A rejected command must not desynchronize the connection.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after rejected tokens: %v", err)
	}
	// The whitespace-containing element never reached the server as
	// multiple elements: a clean insert of 1 element counts 1.
	if _, err := c.PFAdd("clean", "x"); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.PFCount("clean"); n != 1 {
		t.Errorf("clean count = %d, want 1", n)
	}
}

// TestValidToken: the byte loop refuses exactly what
// strings.ContainsAny(s, " \t\r\n") refused — the empty token and each of
// the four bytes wherever it stands — and checkTokens words the refusal as
// it always did.
func TestValidToken(t *testing.T) {
	bad := []string{""}
	for _, c := range []string{" ", "\t", "\r", "\n"} {
		bad = append(bad, c, c+"ab", "a"+c+"b", "ab"+c, "é"+c+"ü")
	}
	for _, s := range bad {
		if ValidToken(s) {
			t.Errorf("ValidToken(%q) = true", s)
		}
		want := fmt.Sprintf("server: token %q must be non-empty and free of whitespace", s)
		if err := checkTokens([]string{"PFADD", "key", s}); err == nil || err.Error() != want {
			t.Errorf("checkTokens with %q: %v, want %q", s, err, want)
		}
	}
	for _, s := range []string{"a", "key:1", "é\u00a0ü\u2028", "\x00\x0b\x0c\x1f\x7f", "a\u0085b"} { // other space characters are data
		if !ValidToken(s) || s == "" || strings.ContainsAny(s, " \t\r\n") {
			t.Errorf("ValidToken(%q) = false", s)
		}
		if err := checkTokens([]string{"PFADD", "key", s}); err != nil {
			t.Errorf("checkTokens with %q: %v", s, err)
		}
	}
}

// BenchmarkCheckTokens10000 is the validation a 10 000-element PFADD pays
// before a byte is sent or hashed: Client.PFAdd, Pipeline and (through
// ValidToken) Node.Add and the ClusterClient all go through this loop.
func BenchmarkCheckTokens10000(b *testing.B) {
	parts := []string{"PFADD", "visitors:2026-09-26"}
	for i := 0; i < 10000; i++ {
		parts = append(parts, "user-"+strconv.Itoa(1000000+i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := checkTokens(parts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPipelineExec drives the Pipeline API end to end: queued commands
// go out as one batch, and results come back in order with per-command
// errors in place.
func TestPipelineExec(t *testing.T) {
	_, c := startServer(t)
	p := c.Pipeline()
	const n = 500
	for i := 0; i < n; i++ {
		p.PFAdd("pipe", fmt.Sprintf("el-%d", i))
	}
	p.Do("PFCOUNT", "pipe")
	p.Do("DUMP", "missing")
	p.Do("PING")
	if p.Len() != n+3 {
		t.Fatalf("Len = %d, want %d", p.Len(), n+3)
	}
	results, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n+3 {
		t.Fatalf("got %d results, want %d", len(results), n+3)
	}
	for i := 0; i < n; i++ {
		// A distinct element usually changes the sketch (":1") but may
		// legitimately not (":0") — only an error is wrong here.
		if results[i].Err != nil || (results[i].Value != "1" && results[i].Value != "0") {
			t.Fatalf("result %d = %+v, want 0 or 1", i, results[i])
		}
	}
	count, err := strconv.Atoi(results[n].Value)
	if err != nil || count < n*95/100 || count > n*105/100 {
		t.Errorf("pipelined PFCOUNT = %q (%v), want ≈%d", results[n].Value, err, n)
	}
	if results[n+1].Err == nil {
		t.Error("DUMP of missing key inside pipeline succeeded")
	}
	if results[n+2].Value != "PONG" {
		t.Errorf("pipelined PING = %+v", results[n+2])
	}
	// The pipeline is reusable after Exec.
	if p.Len() != 0 {
		t.Fatalf("Len after Exec = %d, want 0", p.Len())
	}
	p.Do("PFCOUNT", "pipe")
	results, err = p.Exec()
	if err != nil || len(results) != 1 {
		t.Fatalf("reused pipeline: %v, %d results", err, len(results))
	}
	if got, _ := strconv.Atoi(results[0].Value); got < n*95/100 || got > n*105/100 {
		t.Errorf("reused pipeline PFCOUNT = %q, want ≈%d", results[0].Value, n)
	}
}

// TestPipelinePoisoned: one invalid token poisons the whole batch —
// Exec sends nothing and reports the error, and the connection stays
// in sync.
func TestPipelinePoisoned(t *testing.T) {
	_, c := startServer(t)
	p := c.Pipeline()
	p.PFAdd("ok", "fine")
	p.PFAdd("key", "bad element")
	p.PFAdd("ok", "also-fine")
	results, err := p.Exec()
	if err == nil {
		t.Fatal("poisoned pipeline Exec succeeded")
	}
	if !strings.Contains(err.Error(), "bad element") {
		t.Errorf("error %q does not name the offending token", err)
	}
	if results != nil {
		t.Errorf("poisoned Exec returned results: %+v", results)
	}
	// Nothing was sent: the key must not exist.
	if _, err := c.Do("DUMP", "ok"); err == nil {
		t.Error("poisoned pipeline partially executed")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after poisoned pipeline: %v", err)
	}
	// The pipeline resets after the failed Exec and works again.
	p.PFAdd("ok", "fine")
	if results, err := p.Exec(); err != nil || len(results) != 1 {
		t.Fatalf("pipeline unusable after poison: %v", err)
	}
}

// TestPipelineEmptyExec: executing an empty pipeline is a no-op.
func TestPipelineEmptyExec(t *testing.T) {
	_, c := startServer(t)
	results, err := c.Pipeline().Exec()
	if err != nil || results != nil {
		t.Fatalf("empty Exec = %+v, %v", results, err)
	}
}

func TestErrNoSuchKeySentinel(t *testing.T) {
	_, c := startServer(t)
	_, err := c.Do("DUMP", "nope")
	if !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("DUMP error %v does not wrap ErrNoSuchKey", err)
	}
}

func TestReplyErrClassification(t *testing.T) {
	cases := []struct {
		line  string
		reply bool
	}{
		{"-ERR no such key\n", true},
		{"-ERR totally novel failure\n", true},
		{"-ERR count \"k\": WRONGTYPE key holds a value of another type\n", true},
		{"-MOVED e=1 n1=127.0.0.1:1\n", true}, // an unknown error reply is still a reply
		{"bogus\n", false},                    // malformed stream: transport-grade
		{"\n", false},                         // empty reply: transport-grade
	}
	for _, tc := range cases {
		_, err := parseReply(tc.line)
		if err == nil {
			t.Fatalf("%q parsed without error", tc.line)
		}
		if got := IsReplyErr(err); got != tc.reply {
			t.Errorf("IsReplyErr(%q) = %v, want %v", tc.line, got, tc.reply)
		}
	}
	// The sentinel mappings must survive the ReplyError wrapper.
	_, err := parseReply("-ERR no such key\n")
	if !errors.Is(err, ErrNoSuchKey) {
		t.Error("ErrNoSuchKey lost through ReplyError")
	}
	_, err = parseReply("-ERR count \"k\": WRONGTYPE key holds a value of another type\n")
	if !errors.Is(err, ErrWrongType) {
		t.Error("ErrWrongType lost through ReplyError")
	}
}

// TestPipelineErrInterleaved proves the one-reply-one-line rule for error
// replies: an -ERR interleaved between successful replies occupies
// exactly one reply slot, so the pipeline stays in sync and neighbors
// are unaffected.
func TestPipelineErrInterleaved(t *testing.T) {
	store, err := NewStore(core.RecommendedML(12))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.Handle("REFUSE", 0, -1, "", func(reply []byte, _ [][]byte) []byte {
		return append(reply, "-ERR refused by the test"...)
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pl := c.Pipeline()
	pl.PFAdd("k1", "a")
	pl.Do("REFUSE", "k2")
	pl.PFAdd("k3", "b")
	pl.Do("REFUSE", "k4")
	pl.Do("PFCOUNT", "k1")
	results, err := pl.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	if results[0].Err != nil || results[0].Value != "1" {
		t.Errorf("reply 0 = %+v, want PFADD success", results[0])
	}
	for _, i := range []int{1, 3} {
		if err := results[i].Err; err == nil || err.Error() != "refused by the test" || !IsReplyErr(err) {
			t.Errorf("reply %d = %+v, want the reply error \"refused by the test\"", i, results[i])
		}
	}
	if results[2].Err != nil || results[2].Value != "1" {
		t.Errorf("reply 2 = %+v, want PFADD success", results[2])
	}
	if results[4].Err != nil || results[4].Value != "1" {
		t.Errorf("reply 4 = %+v, want count 1", results[4])
	}
	// The connection is still healthy after the interleaved errors.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection desynced after interleaved -ERR: %v", err)
	}
}

// dump fetches key's value blob with DUMP.
func dump(c *Client, key string) ([]byte, error) {
	reply, err := c.Do("DUMP", key)
	if err != nil {
		return nil, err
	}
	return base64.StdEncoding.DecodeString(reply)
}

// restore replaces key's value with blob through RESTORE.
func restore(c *Client, key string, blob []byte) error {
	_, err := c.Do("RESTORE", key, base64.StdEncoding.EncodeToString(blob))
	return err
}
