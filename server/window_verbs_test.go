package server

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"exaloglog/internal/core"
	"exaloglog/window"
)

// baseMS is a fixed stream epoch: every windowed test supplies explicit
// timestamps, so nothing here reads a wall clock.
const baseMS = int64(1_750_000_000_000)

// TestWAddWCountEndToEnd drives the windowed workload over the wire
// with explicit timestamps and checks every estimate against a
// reference window.Counter fed the same stream — merging slices is
// lossless, so equality is exact, including the sliding-expiry edge.
func TestWAddWCountEndToEnd(t *testing.T) {
	srv, c := startServer(t)
	ref, err := window.New(srv.store.Config(), time.Second, 60)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		ts := baseMS + int64(s)*1000
		for e := 0; e < 40; e++ {
			el := fmt.Sprintf("src-%d-%d", s, e)
			n, err := c.WAdd("ddos:victim", ts, el)
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("WADD accepted %d of 1 in-span elements", n)
			}
			ref.AddString(time.UnixMilli(ts), el)
		}
	}
	nowMS := baseMS + 9_000
	for _, w := range []time.Duration{time.Second, 5 * time.Second, 30 * time.Second} {
		got, err := wcountAt(c, "ddos:victim", w, nowMS)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(ref.Estimate(time.UnixMilli(nowMS), w) + 0.5)
		if got != want {
			t.Errorf("WCOUNT %v = %d, want %d (must match a local ring exactly)", w, got, want)
		}
	}
	// Default "now" is the key's newest observed timestamp.
	defGot, err := c.WCount("ddos:victim", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	expGot, err := wcountAt(c, "ddos:victim", 5*time.Second, nowMS)
	if err != nil {
		t.Fatal(err)
	}
	if defGot != expGot {
		t.Errorf("WCOUNT default now = %d, explicit latest = %d", defGot, expGot)
	}
	// Slide far forward: everything expires out of a short window.
	if _, err := c.WAdd("ddos:victim", nowMS+120_000, "much-later"); err != nil {
		t.Fatal(err)
	}
	got, err := wcountAt(c, "ddos:victim", 5*time.Second, nowMS+120_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("after the window slid past the burst, WCOUNT = %d, want 1", got)
	}
	// A missing key counts zero, like PFCOUNT.
	if got, err := c.WCount("nope", time.Second); err != nil || got != 0 {
		t.Errorf("WCOUNT of missing key = %d, %v; want 0, nil", got, err)
	}
}

// TestWAddDropsAndWInfo: elements older than the ring span are dropped,
// the WADD reply says how many survived, and WINFO surfaces the
// cumulative Dropped statistic alongside the ring geometry.
func TestWAddDropsAndWInfo(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.WAdd("k", baseMS, "fresh"); err != nil {
		t.Fatal(err)
	}
	// Two elements older than the 60s ring span: neither is accepted.
	n, err := c.WAdd("k", baseMS-120_000, "old-a", "old-b")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("WADD of two span-old elements accepted %d", n)
	}
	info, err := c.Do("WINFO", "k")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"slice=1s", "slices=60", "span=1m0s", "dropped=2", fmt.Sprintf("latest=%d", baseMS)} {
		if !strings.Contains(info, want) {
			t.Errorf("WINFO %q lacks %q", info, want)
		}
	}
	if _, err := c.Do("WINFO", "missing"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("WINFO of missing key: %v, want ErrNoSuchKey", err)
	}
	// INFO works on windowed keys too, with a type marker.
	generic, err := c.Do("INFO", "k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(generic, "type=window ") {
		t.Errorf("INFO on a windowed key = %q, want a type=window description", generic)
	}
}

// TestTypedVerbsRejectWrongValueType: the keyspace is polymorphic but
// verbs are typed — every cross-type access fails with a WRONGTYPE
// error the client maps to ErrWrongType, and the key's state stays
// untouched.
func TestTypedVerbsRejectWrongValueType(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.PFAdd("plain", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WAdd("windowed", baseMS, "x"); err != nil {
		t.Fatal(err)
	}
	cross := []struct {
		name string
		err  error
	}{
		{"WADD on plain", func() error { _, err := c.WAdd("plain", baseMS, "x"); return err }()},
		{"WCOUNT on plain", func() error { _, err := c.WCount("plain", time.Second); return err }()},
		{"WINFO on plain", func() error { _, err := c.Do("WINFO", "plain"); return err }()},
		{"PFADD on windowed", func() error { _, err := c.PFAdd("windowed", "x"); return err }()},
		{"PFCOUNT on windowed", func() error { _, err := c.PFCount("windowed"); return err }()},
		{"PFCOUNT union over windowed", func() error { _, err := c.PFCount("plain", "windowed"); return err }()},
		{"PFMERGE from windowed", func() error { _, err := c.Do("PFMERGE", "dest", "windowed"); return err }()},
		{"PFMERGE into windowed", func() error { _, err := c.Do("PFMERGE", "windowed", "plain"); return err }()},
	}
	for _, tc := range cross {
		if !errors.Is(tc.err, ErrWrongType) {
			t.Errorf("%s: error %v, want ErrWrongType", tc.name, tc.err)
		}
	}
	// Both keys are intact after the failed cross-type traffic.
	if n, err := c.PFCount("plain"); err != nil || n != 2 {
		t.Errorf("plain key after wrongtype traffic: %d, %v", n, err)
	}
	if n, err := c.WCount("windowed", time.Minute); err != nil || n != 1 {
		t.Errorf("windowed key after wrongtype traffic: %d, %v", n, err)
	}
}

// TestWindowVerbArgumentErrors mirrors TestArgumentErrors for the
// windowed verbs.
func TestWindowVerbArgumentErrors(t *testing.T) {
	_, c := startServer(t)
	for _, cmd := range [][]string{
		{"WADD"},
		{"WADD", "key"},
		{"WADD", "key", "123"},            // no elements
		{"WADD", "key", "notatime", "el"}, // bad timestamp
		{"WCOUNT"},
		{"WCOUNT", "key"},
		{"WCOUNT", "key", "nonsense"},       // bad duration
		{"WCOUNT", "key", "-5s"},            // non-positive window
		{"WCOUNT", "key", "5s", "notatime"}, // bad explicit now
		{"WCOUNT", "key", "5s", "1", "2"},   // too many args
		{"WINFO"},
		{"WINFO", "a", "b"},
	} {
		if _, err := c.Do(cmd...); err == nil {
			t.Errorf("command %v accepted", cmd)
		}
	}
}

// TestWAddHostileTimestamps: pre-epoch and overflowing timestamps are
// attacker-controlled wire input; they must come back as dropped
// inserts (`:0`), never panic the server, and the connection (and the
// whole process) must stay up.
func TestWAddHostileTimestamps(t *testing.T) {
	_, c := startServer(t)
	for _, ts := range []int64{-5_000, -9_000_000_000_000, 9_000_000_000_000_000} {
		n, err := c.WAdd("k", ts, "el")
		if err != nil {
			t.Fatalf("WAdd(ts=%d): %v", ts, err)
		}
		if n != 0 {
			t.Errorf("WAdd(ts=%d) accepted %d, want 0", ts, n)
		}
	}
	// The server survived and the key still works.
	if n, err := c.WAdd("k", baseMS, "fine"); err != nil || n != 1 {
		t.Fatalf("WAdd after hostile timestamps: %d, %v", n, err)
	}
	if got, err := c.WCount("k", time.Minute); err != nil || got != 1 {
		t.Errorf("WCount after hostile timestamps: %d, %v; want 1", got, err)
	}
}

// TestWindowDumpRestoreMergeBlob: windowed values flow through the
// generic persistence verbs — DUMP yields the slot-wise blob, RESTORE
// recreates the ring (even over a plain key), and MergeBlob merges
// slot-wise, staying idempotent (the property replication relies on).
func TestWindowDumpRestoreMergeBlob(t *testing.T) {
	srv, c := startServer(t)
	for s := 0; s < 5; s++ {
		for e := 0; e < 30; e++ {
			if _, err := c.WAdd("w", baseMS+int64(s)*1000, fmt.Sprintf("el-%d-%d", s, e)); err != nil {
				t.Fatal(err)
			}
		}
	}
	blob, err := dump(c, "w")
	if err != nil {
		t.Fatal(err)
	}
	if !window.IsSerialized(blob) {
		t.Fatal("DUMP of a windowed key is not a window blob")
	}
	// RESTORE over a plain key switches its type.
	if _, err := c.PFAdd("other", "x"); err != nil {
		t.Fatal(err)
	}
	if err := restore(c, "other", blob); err != nil {
		t.Fatal(err)
	}
	a, _ := c.WCount("w", time.Minute)
	b, err := c.WCount("other", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("restored windowed key counts %d, want %d", b, a)
	}
	// MergeBlob is idempotent: merging the same ring in twice changes
	// nothing (slice-level sketch union).
	store := srv.store
	if err := store.MergeBlob("w", blob); err != nil {
		t.Fatal(err)
	}
	if err := store.MergeBlob("w", blob); err != nil {
		t.Fatal(err)
	}
	after, err := c.WCount("w", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if after != a {
		t.Errorf("idempotent re-merge moved the count %d → %d", a, after)
	}
	// Disjoint rings union: a second server's ring merges in slot-wise.
	st2, err := NewStore(srv.store.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.WindowAdd("w", time.UnixMilli(baseMS), "only-on-2"); err != nil {
		t.Fatal(err)
	}
	blob2, _ := st2.Dump("w")
	if err := store.MergeBlob("w", blob2); err != nil {
		t.Fatal(err)
	}
	union, _ := c.WCount("w", time.Minute)
	if union != a+1 {
		t.Errorf("slot-wise union counts %d, want %d", union, a+1)
	}
	// A windowed blob cannot merge into a non-empty plain key.
	if err := store.MergeBlob("plain-busy", []byte{}); err == nil {
		t.Error("empty blob accepted")
	}
	if _, err := c.PFAdd("plain-busy", "x"); err != nil {
		t.Fatal(err)
	}
	if err := store.MergeBlob("plain-busy", blob); !errors.Is(err, ErrWrongType) {
		t.Errorf("cross-type MergeBlob: %v, want ErrWrongType", err)
	}
}

// TestPipelineWindowVerbs: WADD/WCOUNT batch through the pipeline like
// the plain verbs.
func TestPipelineWindowVerbs(t *testing.T) {
	_, c := startServer(t)
	p := c.Pipeline()
	for i := 0; i < 50; i++ {
		p.WAdd("pw", baseMS+int64(i)*100, fmt.Sprintf("el-%d", i))
	}
	p.Do("WCOUNT", "pw", time.Minute.String())
	results, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 51 {
		t.Fatalf("got %d results, want 51", len(results))
	}
	for i := 0; i < 50; i++ {
		if results[i].Err != nil || results[i].Value != "1" {
			t.Fatalf("pipelined WADD %d: %q, %v", i, results[i].Value, results[i].Err)
		}
	}
	if results[50].Err != nil || results[50].Value != "50" {
		t.Errorf("pipelined WCOUNT: %q, %v; want 50", results[50].Value, results[50].Err)
	}
}

// FuzzWindowVerbFraming mirrors FuzzGossipDecode at the dispatch layer:
// arbitrary WADD/WCOUNT/WINFO argument bytes must never panic the
// server or produce an unframed reply — every line the dispatcher
// emits starts with a valid type sigil.
func FuzzWindowVerbFraming(f *testing.F) {
	f.Add("key 1750000000000 el1 el2")
	f.Add("key notatime el")
	f.Add("key 99999999999999999999 el")
	f.Add("key -1 el")
	f.Add("key -5000 el")
	f.Add("key -9000000000000000 el")
	f.Add("key 9000000000000000000 el")
	f.Add("key 5s")
	f.Add("key 5s 1750000000000")
	f.Add("key 1h9m0.5s extra extra")
	f.Add("")
	f.Add("\t \r")
	f.Add("k \x00 \xff")
	f.Fuzz(func(t *testing.T, args string) {
		store, err := NewStore(core.RecommendedML(8))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(store)
		var out bytes.Buffer
		cc := newConnCtx(srv, nil, &out)
		for _, verb := range []string{"WADD ", "WCOUNT ", "WINFO ", "PFADD ", "PFCOUNT "} {
			if quit := cc.exec([]byte(verb + args + "\n")); quit {
				t.Fatalf("%s%q quit the connection", verb, args)
			}
		}
		cc.flush()
		for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
			if line == "" {
				continue
			}
			switch line[0] {
			case '+', '-', ':', '=':
			default:
				t.Fatalf("unframed reply line %q for args %q", line, args)
			}
		}
	})
}

// wcountAt sends WCOUNT key window ts, the form with an explicit window
// end, and parses the count.
func wcountAt(c *Client, key string, window time.Duration, tsMillis int64) (int64, error) {
	reply, err := c.Do("WCOUNT", key, window.String(), strconv.FormatInt(tsMillis, 10))
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(reply, 10, 64)
}
