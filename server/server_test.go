package server

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"exaloglog/internal/core"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	store, err := NewStore(core.RecommendedML(12))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestPingAndUnknown(t *testing.T) {
	_, c := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("BOGUS"); err == nil {
		t.Error("unknown command accepted")
	}
	// DUMP is the one dump: the codec-compressed DUMPZ is gone, refused like
	// any verb the registry does not hold, and the connection stays usable.
	if _, err := c.PFAdd("k", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("DUMPZ", "k"); !IsReplyErr(err) || !strings.Contains(err.Error(), "unknown command DUMPZ") {
		t.Errorf("DUMPZ k: err = %v, want an unknown-command reply", err)
	}
	if _, err := dump(c, "k"); err != nil {
		t.Errorf("DUMP after the refused DUMPZ: %v", err)
	}
}

func TestPFAddCount(t *testing.T) {
	_, c := startServer(t)
	changed, err := c.PFAdd("visits", "alice", "bob", "carol")
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("first PFADD reported no change")
	}
	changed, err = c.PFAdd("visits", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("duplicate PFADD reported a change")
	}
	n, err := c.PFCount("visits")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("PFCOUNT = %d, want 3", n)
	}
}

func TestPFCountAccuracy(t *testing.T) {
	_, c := startServer(t)
	const n = 20000
	batch := make([]string, 0, 500)
	for i := 0; i < n; i++ {
		batch = append(batch, fmt.Sprintf("user-%d", i))
		if len(batch) == 500 {
			if _, err := c.PFAdd("big", batch...); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	got, err := c.PFCount("big")
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(float64(got)-n) / n; rel > 0.05 {
		t.Errorf("PFCOUNT = %d, want ≈%d (err %.1f%%)", got, n, 100*rel)
	}
}

func TestPFCountUnion(t *testing.T) {
	_, c := startServer(t)
	// a = {x, y}, b = {y, z}: union = 3.
	if _, err := c.PFAdd("a", "x", "y"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PFAdd("b", "y", "z"); err != nil {
		t.Fatal(err)
	}
	n, err := c.PFCount("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("union PFCOUNT = %d, want 3", n)
	}
	// Missing keys contribute nothing.
	n, err = c.PFCount("a", "nope")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("PFCOUNT with missing key = %d, want 2", n)
	}
}

func TestPFMerge(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.PFAdd("mon", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PFAdd("tue", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("PFMERGE", "week", "mon", "tue"); err != nil {
		t.Fatal(err)
	}
	n, err := c.PFCount("week")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("merged PFCOUNT = %d, want 3", n)
	}
	// Merging into an existing destination accumulates.
	if _, err := c.PFAdd("wed", "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("PFMERGE", "week", "wed"); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.PFCount("week"); n != 4 {
		t.Errorf("accumulated PFCOUNT = %d, want 4", n)
	}
}

func TestDelKeysInfo(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.PFAdd("k1", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PFAdd("k2", "b"); err != nil {
		t.Fatal(err)
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "k1" || keys[1] != "k2" {
		t.Errorf("KEYS = %v", keys)
	}
	info, err := c.Do("INFO", "k1")
	if err != nil {
		t.Fatal(err)
	}
	if info == "" {
		t.Error("empty INFO")
	}
	if reply, err := c.Do("DEL", "k1"); err != nil || reply != "1" {
		t.Errorf("DEL of existing key = %q, %v; want 1", reply, err)
	}
	if reply, err := c.Do("DEL", "k1"); err != nil || reply != "0" {
		t.Errorf("DEL of missing key = %q, %v; want 0", reply, err)
	}
	if _, err := c.Do("INFO", "k1"); err == nil {
		t.Error("INFO of deleted key succeeded")
	}
}

func TestDumpRestore(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.PFAdd("orig", "a", "b", "c", "d"); err != nil {
		t.Fatal(err)
	}
	data, err := dump(c, "orig")
	if err != nil {
		t.Fatal(err)
	}
	if err := restore(c, "copy", data); err != nil {
		t.Fatal(err)
	}
	nOrig, _ := c.PFCount("orig")
	nCopy, _ := c.PFCount("copy")
	if nOrig != nCopy {
		t.Errorf("restored count %d != original %d", nCopy, nOrig)
	}
	if _, err := dump(c, "missing"); err == nil {
		t.Error("DUMP of missing key succeeded")
	}
	if err := restore(c, "bad", []byte("garbage")); err == nil {
		t.Error("RESTORE of garbage succeeded")
	}
}

func TestArgumentErrors(t *testing.T) {
	_, c := startServer(t)
	for _, cmd := range [][]string{
		{"PFADD", "key"},
		{"PFCOUNT"},
		{"PFMERGE", "dest"},
		{"DEL"},
		{"DEL", "a", "b"},
		{"INFO"},
		{"DUMP"},
		{"RESTORE", "key"},
		{"RESTORE", "key", "!!notbase64!!"},
	} {
		if _, err := c.Do(cmd...); err == nil {
			t.Errorf("command %v accepted", cmd)
		}
	}
}

// TestConcurrentClients exercises the store's locking: many clients adding
// to the same and different keys simultaneously.
func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t)
	const (
		clients = 8
		perC    = 2000
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perC; i += 100 {
				batch := make([]string, 0, 100)
				for j := 0; j < 100; j++ {
					batch = append(batch, fmt.Sprintf("c%d-e%d", ci, i+j))
				}
				if _, err := c.PFAdd("shared", batch...); err != nil {
					errs <- err
					return
				}
				if _, err := c.PFAdd(fmt.Sprintf("own-%d", ci), batch...); err != nil {
					errs <- err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := float64(clients * perC)
	got, err := c.PFCount("shared")
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(float64(got)-want) / want; rel > 0.05 {
		t.Errorf("shared PFCOUNT = %d, want ≈%.0f", got, want)
	}
	// Union across per-client keys equals the shared key's content.
	keys := []string{"shared"}
	for ci := 0; ci < clients; ci++ {
		keys = append(keys, fmt.Sprintf("own-%d", ci))
	}
	gotUnion, err := c.PFCount(keys...)
	if err != nil {
		t.Fatal(err)
	}
	if gotUnion != got {
		t.Errorf("union over identical content %d != %d", gotUnion, got)
	}
}

// TestMultilineReplyIsFoldedToOneLine: one reply is one line — that is
// the protocol. A handler whose error message contains newlines (e.g.
// an errors.Join of several cluster owners' failures) must reach the
// wire as a single folded line, or every later reply on the connection
// would be off by one.
func TestMultilineReplyIsFoldedToOneLine(t *testing.T) {
	store, err := NewStore(core.RecommendedML(8))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.Handle("MULTI", 0, -1, "", func(reply []byte, _ [][]byte) []byte {
		return append(reply, "-ERR "+fmt.Errorf("%w", fmt.Errorf("first\nsecond\rthird")).Error()...)
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Do("MULTI"); err == nil {
		t.Fatal("multiline error reply did not surface as an error")
	} else if got := err.Error(); strings.ContainsAny(got, "\r\n") || !strings.Contains(got, "; ") {
		t.Errorf("reply %q not folded to one line", got)
	}
	// The connection is still in sync: the next command sees ITS reply.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection desynchronized after a multiline reply: %v", err)
	}
}

// TestRegistryEntriesHaveOneHandler: every entry has its handler, and
// Handle replaces a built-in's whole entry, arity check included.
func TestRegistryEntriesHaveOneHandler(t *testing.T) {
	store, err := NewStore(core.RecommendedML(8))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.Handle("WCOUNT", 0, -1, "", func(reply []byte, _ [][]byte) []byte { return append(reply, "+OK"...) })
	for verb, cmd := range srv.commands {
		if cmd.run == nil {
			t.Errorf("%s has no handler", verb)
		}
	}
	var out bytes.Buffer
	cc := newConnCtx(srv, nil, &out)
	cc.exec([]byte("WCOUNT\n"))
	cc.release()
	if out.String() != "+OK\n" {
		t.Errorf("replaced WCOUNT with no arguments answered %q, want +OK", out.String())
	}
}

func TestQuitClosesConnection(t *testing.T) {
	_, c := startServer(t)
	reply, err := c.Do("QUIT")
	if err != nil {
		t.Fatal(err)
	}
	if reply != "BYE" {
		t.Errorf("QUIT reply %q", reply)
	}
	if _, err := c.Do("PING"); err == nil {
		t.Error("connection still alive after QUIT")
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := NewStore(core.Config{T: 99}); err == nil {
		t.Error("invalid store config accepted")
	}
}
