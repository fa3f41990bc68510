package server

import (
	"errors"
	"testing"

	"exaloglog/internal/core"
)

func TestParseMovedReply(t *testing.T) {
	_, err := parseReply("-MOVED e=7 n2=127.0.0.1:7701\n")
	mv, ok := AsMoved(err)
	if !ok {
		t.Fatalf("expected MovedError, got %v", err)
	}
	if mv.Epoch != 7 || mv.NodeID != "n2" || mv.Addr != "127.0.0.1:7701" {
		t.Fatalf("parsed %+v", mv)
	}
	if !IsReplyErr(err) {
		t.Error("a -MOVED line is a well-formed reply; IsReplyErr must hold")
	}
}

func TestParseMovedMalformedFallsThrough(t *testing.T) {
	// A reply that merely starts with MOVED but doesn't match the
	// payload grammar must degrade to an ordinary error reply, not be
	// silently mis-parsed.
	for _, line := range []string{
		"-MOVED\n",
		"-MOVED e=x n2=addr\n",
		"-MOVED e=7\n",
		"-MOVED e=7 n2addr\n",
		"-MOVED e=7 n2=addr extra\n",
	} {
		_, err := parseReply(line)
		if err == nil {
			t.Fatalf("%q parsed without error", line)
		}
		if _, ok := AsMoved(err); ok {
			t.Errorf("%q yielded a MovedError", line)
		}
		if !IsReplyErr(err) {
			t.Errorf("%q is still a well-formed reply line", line)
		}
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
		{"-MOVED e=1 n1=127.0.0.1:1\n", true},
		{"bogus\n", false}, // malformed stream: transport-grade
		{"\n", false},      // empty reply: transport-grade
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

// TestPipelineMovedInterleaved proves the one-reply-one-line rule for
// -MOVED: a redirect interleaved between successful replies occupies
// exactly one reply slot, so the pipeline stays in sync and neighbors
// are unaffected.
func TestPipelineMovedInterleaved(t *testing.T) {
	store, err := NewStore(core.RecommendedML(12))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.Handle("BOUNCE", 0, -1, "", func(reply []byte, _ [][]byte) []byte {
		return append(reply, "-MOVED e=3 n9=10.0.0.9:7700"...)
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
	pl.Do("BOUNCE", "k2")
	pl.PFAdd("k3", "b")
	pl.Do("BOUNCE", "k4")
	pl.PFCount("k1")
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
	mv, ok := AsMoved(results[1].Err)
	if !ok || mv.Epoch != 3 || mv.NodeID != "n9" || mv.Addr != "10.0.0.9:7700" {
		t.Errorf("reply 1 = %+v, want MOVED e=3 n9", results[1].Err)
	}
	if results[2].Err != nil || results[2].Value != "1" {
		t.Errorf("reply 2 = %+v, want PFADD success", results[2])
	}
	if _, ok := AsMoved(results[3].Err); !ok {
		t.Errorf("reply 3 = %+v, want MOVED", results[3].Err)
	}
	if results[4].Err != nil || results[4].Value != "1" {
		t.Errorf("reply 4 = %+v, want count 1", results[4])
	}
	// The connection is still healthy after the interleaved errors.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection desynced after interleaved -MOVED: %v", err)
	}
}
