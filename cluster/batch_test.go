package cluster

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"exaloglog/server"
)

// TestMLAddWire drives the mixed group-commit verb over the wire: plain
// ("p") and windowed ("w") groups interleave in one batch, each carrying
// its elements' token batch, the reply carries one token per group in
// order, a WRONGTYPE group answers 'E' without poisoning its neighbors, and
// framing corruption is -ERR.
func TestMLAddWire(t *testing.T) {
	nodes := startCluster(t, 1, 1)
	c, err := server.Dial(nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ab, one := batchB64(t, "a", "b"), batchB64(t, "a")
	reply, err := c.Do("CLUSTER", "MLADD", "3",
		"p", "pk", ab,
		"w", "wk", "1700000000000", "2", batchB64(t, "x", "y"),
		"p", "pk", batchB64(t, "c"))
	if err != nil {
		t.Fatal(err)
	}
	if toks := strings.Fields(reply); len(toks) != 3 || toks[0] != "1" || toks[1] != "2" || toks[2] != "1" {
		t.Fatalf("MLADD reply %q, want tokens [1 2 1]", reply)
	}
	if n, err := nodes[0].Count("pk"); err != nil || math.Abs(n-3) > 0.5 {
		t.Errorf("pk count = %f, %v; want ≈3", n, err)
	}
	// Idempotent re-send: plain bit 0, windowed re-accepts (window
	// semantics count accepted inserts, not changed state).
	reply, err = c.Do("CLUSTER", "MLADD", "1", "p", "pk", ab)
	if err != nil || reply != "0" {
		t.Fatalf("idempotent plain re-send reply %q, %v; want 0", reply, err)
	}

	// A windowed group aimed at the plain key (and vice versa) answers
	// 'E' in place; the unrelated groups in the batch still land.
	reply, err = c.Do("CLUSTER", "MLADD", "3",
		"w", "pk", "1700000000000", "1", batchB64(t, "z"),
		"p", "iso", batchB64(t, "q"),
		"p", "wk", batchB64(t, "z"))
	if err != nil {
		t.Fatal(err)
	}
	if toks := strings.Fields(reply); len(toks) != 3 || toks[0] != "E" || toks[1] != "1" || toks[2] != "E" {
		t.Fatalf("wrong-type isolation reply %q, want tokens [E 1 E]", reply)
	}
	if n, err := nodes[0].Count("iso"); err != nil || n < 0.5 {
		t.Errorf("group coalesced next to a WRONGTYPE neighbor was lost (count %f, %v)", n, err)
	}

	for _, bad := range [][]string{
		{"CLUSTER", "MLADD"},                                                         // no group count
		{"CLUSTER", "MLADD", "x"},                                                    // bad group count
		{"CLUSTER", "MLADD", "0"},                                                    // zero groups
		{"CLUSTER", "MLADD", "9000000000000000000"},                                  // absurd count: must not allocate by it
		{"CLUSTER", "MLADD", "2", "p", "k", one},                                     // count beyond what tokens can satisfy
		{"CLUSTER", "MLADD", "1", "q", "k", one},                                     // unknown group type
		{"CLUSTER", "MLADD", "1", "p", "k"},                                          // missing batch
		{"CLUSTER", "MLADD", "1", "w", "k", "nope", "1", one},                        // bad timestamp
		{"CLUSTER", "MLADD", "1", "w", "k", "1700000000000", "0", one},               // bad element count
		{"CLUSTER", "MLADD", "1", "w", "k", "1700000000000", one},                    // truncated windowed group
		{"CLUSTER", "MLADD", "1", "p", "k", one, "extra"},                            // trailing tokens
		{"CLUSTER", "MLADD", "1", "p", "k", "1", "a"},                                // the retired element framing
		{"CLUSTER", "MLADD", "2", "p", "k", "2", "a", "b", "w", "wk", "1", "1", "x"}, // ... of two groups
	} {
		if _, err := c.Do(bad...); err == nil {
			t.Errorf("malformed %v accepted", bad)
		}
	}
	if _, err := c.Do("PING"); err != nil {
		t.Fatalf("server unusable after malformed MLADD: %v", err)
	}
}

// TestRetiredClusterVerbsAreRefused: MLADD is the one forwarded-add verb,
// ABSORB takes exactly three arguments, anti-entropy has no operator verb
// (gossip and the digest round run on their tickers), XFER is FRAME alone
// (no sessions: BEGIN, END and sequence numbers are gone) and a value
// blob travels as the store serialized it. The verbs and forms
// that used to sit beside them — an "ELC1" container of the retired codec
// where a blob goes among them — get an error reply naming what was
// refused, nothing is applied, and the connection stays usable.
func TestRetiredClusterVerbsAreRefused(t *testing.T) {
	nodes := startCluster(t, 1, 1)
	c := dialNode(t, nodes[0])
	blob := base64.StdEncoding.EncodeToString(denseBlob(t, "x"))
	elc1 := base64.StdEncoding.EncodeToString(elc1Blob(t))
	elc1Frame := base64.StdEncoding.EncodeToString(server.EncodeFrame([]server.KeyBlob{{Key: "framed", Blob: elc1Blob(t)}}))
	for _, tc := range []struct {
		cmd  []string
		want string
	}{
		{[]string{"CLUSTER", "MLPFADD", "1", "k", "1", "a"}, "unknown CLUSTER subcommand MLPFADD"},
		{[]string{"CLUSTER", "LPFADD", "k", "a"}, "unknown CLUSTER subcommand LPFADD"},
		{[]string{"CLUSTER", "LWADD", "k", "1700000000000", "a"}, "unknown CLUSTER subcommand LWADD"},
		{[]string{"CLUSTER", "SYNC"}, "unknown CLUSTER subcommand SYNC"},
		{[]string{"CLUSTER", "REBALANCE"}, "unknown CLUSTER subcommand REBALANCE"},
		{[]string{"CLUSTER", "ABSORB", "k", blob}, "CLUSTER ABSORB needs a key, a base64 payload and a deadline"},
		{[]string{"CLUSTER", "XFER", "BEGIN", "e=1", "sid=s.1", "seq=1"}, "CLUSTER XFER needs FRAME, e=<epoch> and a frame"},
		{[]string{"CLUSTER", "XFER", "END", "s.1", "1", "10"}, "CLUSTER XFER needs FRAME, e=<epoch> and a frame"},
		{[]string{"CLUSTER", "XFER", "FRAME", "s.1", "1", elc1Frame}, "CLUSTER XFER needs FRAME, e=<epoch> and a frame"},
		{[]string{"CLUSTER", "ABSORB", "absorbed", elc1, "0"}, `merge blob into "absorbed"`},
		{[]string{"RESTORE", "restored", elc1}, "unsupported format version 67"},
		{[]string{"CLUSTER", "XFER", "FRAME", "e=1", elc1Frame}, `xfer: server: merge blob into "framed"`},
	} {
		_, err := c.Do(tc.cmd...)
		if !server.IsReplyErr(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want reply error %q", tc.cmd, err, tc.want)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("connection unusable after %v: %v", tc.cmd, err)
		}
	}
	if got := nodes[0].Store().Len(); got != 0 {
		t.Errorf("refused commands created %d keys", got)
	}
	// The three-argument form is the one that works.
	if _, err := c.Do("CLUSTER", "ABSORB", "k", blob, "0"); err != nil {
		t.Fatalf("CLUSTER ABSORB k <blob> 0: %v", err)
	}
}

// TestAddNoElements: a zero-element Add is rejected up front — queued
// into a batch it would fail every unrelated coalesced write.
func TestAddNoElements(t *testing.T) {
	nodes := startCluster(t, 2, 2)
	if _, err := nodes[0].Add("key"); err == nil {
		t.Fatal("Add with no elements succeeded")
	}
	if _, err := nodes[0].Add("key", "el"); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedAddConvergence fires many concurrent Adds through one
// coordinator — exercising the per-peer MLADD batcher — and checks
// that every replica of every key converges to the same sketch state,
// observable as identical counts through every node.
func TestBatchedAddConvergence(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	const (
		workers = 8
		perW    = 300
		keys    = 7
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := fmt.Sprintf("conv-%d", i%keys)
				if _, err := nodes[0].Add(key, fmt.Sprintf("w%d-e%d", w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Per-key counts must agree exactly across nodes (replicas are
	// byte-identical, and Count unions all owner copies).
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("conv-%d", k)
		ref, err := nodes[0].Count(key)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range nodes[1:] {
			got, err := n.Count(key)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Errorf("key %s: node %d count %f != node 0 count %f", key, i+1, got, ref)
			}
		}
	}
	// The union across all keys ≈ every element inserted.
	all := make([]string, keys)
	for k := range all {
		all[k] = fmt.Sprintf("conv-%d", k)
	}
	total, err := nodes[2].Count(all...)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(workers * perW)
	if rel := math.Abs(total-want) / want; rel > 0.10 {
		t.Errorf("union count = %.0f, want ≈%.0f", total, want)
	}
}

// TestMixedBatchedAddConvergence fires concurrent plain Adds AND
// windowed WindowAdds through one coordinator: both kinds coalesce into
// the same per-peer MLADD batches (no second serialized batch stream),
// every write lands exactly once, and both plain counts and window
// estimates agree across all replicas.
func TestMixedBatchedAddConvergence(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	const (
		workers = 8
		perW    = 200
		baseTS  = int64(1_700_000_000_000)
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				el := fmt.Sprintf("w%d-e%d", w, i)
				if w%2 == 0 {
					if _, err := nodes[0].Add("mixed-plain", el); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := nodes[0].WindowAdd("mixed-win", baseTS+int64(i), el); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	refPlain, err := nodes[0].Count("mixed-plain")
	if err != nil {
		t.Fatal(err)
	}
	refWin, err := nodes[0].WindowCount("mixed-win", time.Minute, baseTS+perW)
	if err != nil {
		t.Fatal(err)
	}
	if refPlain < 0.9*float64(workers/2*perW) {
		t.Errorf("plain count %f lost writes (want ≈%d)", refPlain, workers/2*perW)
	}
	if refWin < 0.9*float64(workers/2*perW) {
		t.Errorf("window estimate %f lost writes (want ≈%d)", refWin, workers/2*perW)
	}
	for i, n := range nodes[1:] {
		if got, err := n.Count("mixed-plain"); err != nil || got != refPlain {
			t.Errorf("node %d plain count %f, %v != %f", i+1, got, err, refPlain)
		}
		if got, err := n.WindowCount("mixed-win", time.Minute, baseTS+perW); err != nil || got != refWin {
			t.Errorf("node %d window estimate %f, %v != %f", i+1, got, err, refWin)
		}
	}
	// The coalescing actually happened through the shared MLADD batcher:
	// far fewer flushes than groups.
	var groups, batches uint64
	for _, n := range nodes {
		s := n.StatsCounters()
		groups += s.MLPFAddGroups
		batches += s.MLPFAddBatches
	}
	if groups == 0 || batches == 0 {
		t.Fatal("mixed load never exercised the group-commit batcher")
	}
	t.Logf("mixed batcher coalesced %d groups into %d MLADD flushes", groups, batches)
	if batches >= groups {
		t.Errorf("no coalescing: %d batches for %d groups", batches, groups)
	}
}

// TestForwardedWritesPinned pins what forwarded writes leave behind: a
// seeded mix of Node.Add and Node.WindowAdd calls through every coordinator
// of a 3-node, replica-2 cluster — plain keys and window slices on both
// sides of break-even, new elements and repeated writes, timestamps older
// than the ring span — and the SHA-256 over every reply and every node's
// blob of every key. The pin was taken when owners still hashed the
// elements themselves: the token batches a coordinator ships change
// neither a replica's bytes nor a reply.
func TestForwardedWritesPinned(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	r := rand.New(rand.NewSource(30))
	sizes := []int{1, 2, 5, 31, 32, 33, 200, 1500, 20000} // break-even at p=10 is ~4000 tokens
	const ts0 = int64(1_750_000_000_000)
	sum := sha256.New()
	var key string
	var els []string
	var ts int64
	for i := 0; i < 100; i++ {
		windowed := i%4 == 3
		if i%5 != 4 { // else the write before, once more
			els = make([]string, sizes[r.Intn(len(sizes))])
			for j := range els {
				els[j] = fmt.Sprintf("e%d", r.Intn(1<<20))
			}
			key, ts = fmt.Sprintf("p%d", r.Intn(12)), ts0+int64(r.Intn(90_000))
			if windowed {
				key = fmt.Sprintf("w%d", r.Intn(4))
			}
		}
		coord := nodes[i%len(nodes)]
		if key[0] == 'w' {
			accepted, err := coord.WindowAdd(key, ts, els...)
			fmt.Fprintf(sum, "W %s %d %d %d %v\n", key, ts, len(els), accepted, err)
			continue
		}
		changed, err := coord.Add(key, els...)
		fmt.Fprintf(sum, "P %s %d %v %v\n", key, len(els), changed, err)
	}
	for _, n := range nodes {
		for _, key := range n.Store().Keys() {
			blob, _ := n.Store().Dump(key)
			fmt.Fprintf(sum, "%s %s %x\n", n.ID(), key, blob)
		}
	}
	const want = "70a2c20f5a4923651138e8a0785462540b0f5c909c42c91b5c7f8caee1ff1b2a"
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("replies and replica blobs hash to %s, want %s", got, want)
	}
}
