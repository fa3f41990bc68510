package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"exaloglog/server"
)

// TestMLAddWire drives the forwarded-add verb over the wire: a plain ("p")
// or a windowed ("w") add of one key's token batch, answered with the
// changed-bit or the accepted count. A batch aimed at a key of the other
// type answers one -ERR line that parses as server.ErrWrongType and leaves
// the key's bytes as they were; malformed lines, the retired counted forms
// among them, are -ERR; and the next command on the connection gets its
// own reply after each.
func TestMLAddWire(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 1, replicas: 1})
	store := h.node("n1").Store()
	c := h.dial(h.addr("n1"))

	ab, one := batchB64(t, "a", "b"), batchB64(t, "a")
	for _, tc := range []struct {
		cmd  []string
		want string
	}{
		{[]string{"CLUSTER", "MLADD", "p", "pk", ab}, "1"},
		{[]string{"CLUSTER", "MLADD", "w", "wk", "1700000000000", "2", batchB64(t, "x", "y")}, "2"},
		{[]string{"CLUSTER", "MLADD", "p", "pk", batchB64(t, "c")}, "1"},
		// Idempotent re-send: plain bit 0, windowed re-accepts (window
		// semantics count accepted inserts, not changed state).
		{[]string{"CLUSTER", "MLADD", "p", "pk", ab}, "0"},
		{[]string{"CLUSTER", "MLADD", "w", "wk", "1700000000000", "2", batchB64(t, "x", "y")}, "2"},
	} {
		if reply, err := c.Do(tc.cmd...); err != nil || reply != tc.want {
			t.Fatalf("%v: reply %q, %v; want %q", tc.cmd, reply, err, tc.want)
		}
	}
	if n, err := h.node("n1").Count("pk"); err != nil || math.Abs(n-3) > 0.5 {
		t.Errorf("pk count = %f, %v; want ≈3", n, err)
	}

	// A windowed add aimed at the plain key, and a plain one at the
	// windowed key, are refused: one error reply each, nothing changed.
	for _, cmd := range [][]string{
		{"CLUSTER", "MLADD", "w", "pk", "1700000000000", "1", batchB64(t, "z")},
		{"CLUSTER", "MLADD", "p", "wk", batchB64(t, "z")},
	} {
		before, _ := store.Dump(cmd[3])
		if _, err := c.Do(cmd...); !errors.Is(err, server.ErrWrongType) {
			t.Errorf("%v: %v, want ErrWrongType", cmd, err)
		}
		if after, _ := store.Dump(cmd[3]); !bytes.Equal(after, before) {
			t.Errorf("%v changed %q", cmd, cmd[3])
		}
		if reply, err := c.Do("CLUSTER", "MLADD", "p", "iso", batchB64(t, "q")); err != nil || (reply != "1" && reply != "0") {
			t.Fatalf("the add after %v: %q, %v", cmd, reply, err)
		}
	}

	for _, bad := range [][]string{
		{"CLUSTER", "MLADD"},                                                     // no arguments
		{"CLUSTER", "MLADD", "p", "k"},                                           // missing batch
		{"CLUSTER", "MLADD", "q", "k", one},                                      // unknown type
		{"CLUSTER", "MLADD", "w", "k", "nope", "1", one},                         // bad timestamp
		{"CLUSTER", "MLADD", "w", "k", "1700000000000", "0", one},                // bad element count
		{"CLUSTER", "MLADD", "w", "k", "1700000000000", one},                     // truncated windowed add
		{"CLUSTER", "MLADD", "p", "k", one, "extra"},                             // trailing token
		{"CLUSTER", "MLADD", "p", "k", "1", "a"},                                 // the retired element framing
		{"CLUSTER", "MLADD", "1", "p", "k", one},                                 // the retired group count
		{"CLUSTER", "MLADD", "3", "p", "k", one},                                 // ... of a count beyond the groups
		{"CLUSTER", "MLADD", "2", "p", "k", one, "w", "wk", "1", "1", one},       // ... of two groups
		{"CLUSTER", "MLADD", "9000000000000000000"},                              // ... absurd
		{"CLUSTER", "MLADD", "1", "w", "k", "1700000000000", "1", one, "p", "k"}, // ... and too long
	} {
		if _, err := c.Do(bad...); !server.IsReplyErr(err) {
			t.Errorf("malformed %v: %v, want an error reply", bad, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("server unusable after malformed %v: %v", bad, err)
		}
	}
	if got := store.Len(); got != 3 {
		t.Errorf("%d keys after the refusals, want pk, wk and iso", got)
	}
}

// TestRetiredClusterVerbsAreRefused: MLADD is the one forwarded-add verb,
// anti-entropy has no operator verb (gossip and the digest round run on
// their tickers), XFER is FRAME alone (no sessions: BEGIN, END and
// sequence numbers are gone) and the one way to merge a blob into a key —
// PFMERGE's too, ABSORB is gone — and a value blob travels as the store
// serialized it. Membership needs no vote: EPOCH is gone, and a frame is
// fenced by the map's height, not an epoch. The verbs and forms
// that used to sit beside them — an "ELC1" container of the retired codec
// where a blob goes among them — get an error reply naming what was
// refused, nothing is applied, and the connection stays usable.
func TestRetiredClusterVerbsAreRefused(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 1, replicas: 1})
	c := h.dial(h.addr("n1"))
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
		{[]string{"CLUSTER", "ABSORB", "k", blob}, "unknown CLUSTER subcommand ABSORB"},
		{[]string{"CLUSTER", "XFER", "BEGIN", "e=1", "sid=s.1", "seq=1"}, "CLUSTER XFER needs FRAME, h=<height> and a frame"},
		{[]string{"CLUSTER", "XFER", "END", "s.1", "1", "10"}, "CLUSTER XFER needs FRAME, h=<height> and a frame"},
		{[]string{"CLUSTER", "XFER", "FRAME", "s.1", "1", elc1Frame}, "CLUSTER XFER needs FRAME, h=<height> and a frame"},
		{[]string{"CLUSTER", "ABSORB", "absorbed", blob, "0"}, "unknown CLUSTER subcommand ABSORB"},
		{[]string{"RESTORE", "restored", elc1}, "unsupported format version 67"},
		{[]string{"CLUSTER", "XFER", "FRAME", "e=1", elc1Frame}, "CLUSTER XFER needs FRAME, h=<height> and a frame"},
		{[]string{"CLUSTER", "XFER", "FRAME", "h=1", elc1Frame}, `xfer: server: merge blob into "framed"`},
		{[]string{"CLUSTER", "EPOCH", "1", "n1"}, "unknown CLUSTER subcommand EPOCH"},
	} {
		_, err := c.Do(tc.cmd...)
		if !server.IsReplyErr(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want reply error %q", tc.cmd, err, tc.want)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("connection unusable after %v: %v", tc.cmd, err)
		}
	}
	if got := h.node("n1").Store().Len(); got != 0 {
		t.Errorf("refused commands created %d keys", got)
	}
	// A frame of the blob is the form that works.
	frame := base64.StdEncoding.EncodeToString(server.EncodeFrame([]server.KeyBlob{{Key: "k", Blob: denseBlob(t, "x")}}))
	if _, err := c.Do("CLUSTER", "XFER", "FRAME", "h=1", frame); err != nil || h.node("n1").Store().Len() != 1 {
		t.Fatalf("CLUSTER XFER FRAME h=1 <frame of k>: %v, %d keys", err, h.node("n1").Store().Len())
	}
}

// TestAddNoElements: a zero-element Add is rejected up front, before any
// owner is asked.
func TestAddNoElements(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 2, replicas: 2}).running()
	if _, err := nodes[0].Add("key"); err == nil {
		t.Fatal("Add with no elements succeeded")
	}
	if _, err := nodes[0].Add("key", "el"); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedAddConvergence fires many concurrent Adds through one
// coordinator — each forwarded as an MLADD of its token batch — and checks
// that every replica of every key converges to the same sketch state,
// observable as identical counts through every node.
func TestBatchedAddConvergence(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 3, replicas: 2}).running()
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
// windowed WindowAdds through one coordinator, forwarded down the same
// pooled peer connections: every write lands exactly once, and both plain
// counts and window estimates agree across all replicas.
func TestMixedBatchedAddConvergence(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 3, replicas: 2}).running()
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
	// Every forwarded write was one MLADD line.
	var lines uint64
	for _, n := range nodes {
		lines += n.StatsCounters().MLPFAddGroups
	}
	if lines == 0 {
		t.Fatal("mixed load never forwarded a write")
	}
}

// TestForwardedWritesPinned pins what forwarded writes leave behind: a
// seeded mix of Node.Add and Node.WindowAdd calls through every coordinator
// of a 3-node, replica-2 cluster — plain keys and window slices on both
// sides of break-even, new elements and repeated writes, timestamps older
// than the ring span — and two SHA-256 pins. The per-node pin hashes every
// reply and every node's blob of every key, so it also pins which nodes
// hold a key. The placement-free pin hashes every reply and each key's
// distinct replica blobs, so it pins what the cluster answers and holds,
// whichever nodes hold it.
func TestForwardedWritesPinned(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 3, replicas: 2}).running()
	sum, free := sha256.New(), sha256.New()
	replies := io.MultiWriter(sum, free)
	for i, w := range forwardedMix() {
		coord := nodes[i%len(nodes)]
		if w.key[0] == 'w' {
			accepted, err := coord.WindowAdd(w.key, w.ts, w.els...)
			fmt.Fprintf(replies, "W %s %d %d %d %v\n", w.key, w.ts, len(w.els), accepted, err)
			continue
		}
		changed, err := coord.Add(w.key, w.els...)
		fmt.Fprintf(replies, "P %s %d %v %v\n", w.key, len(w.els), changed, err)
	}
	hashReplicaBlobs(sum, nodes)
	hashKeyBlobs(free, nodes)
	checkPins(t, sum, free,
		"9babb9a2a58380f5abbf158c00dcccf9e69366149bf7648c1a71c35a5c3fce78",
		"906da8a705978ed999c417925df774ab1be5247f9ec21734e9db8b7c942b328f")
}

// TestForwardedWireWritesPinned is TestForwardedWritesPinned through the
// front end: the same writes as PFADD and WADD lines, each sent to its
// coordinator's socket, so the elements are hashed from the line's bytes.
// Its two pins are taken as there.
func TestForwardedWireWritesPinned(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	nodes := h.running()
	var script []string
	for _, w := range forwardedMix() {
		line := fmt.Sprintf("PFADD %s %s", w.key, strings.Join(w.els, " "))
		if w.key[0] == 'w' {
			line = fmt.Sprintf("WADD %s %d %s", w.key, w.ts, strings.Join(w.els, " "))
		}
		script = append(script, line)
	}
	replies := h.runScript(script, []string{nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr()})
	sum, free := sha256.New(), sha256.New()
	for i, reply := range replies {
		fmt.Fprintf(io.MultiWriter(sum, free), "%d %s", i, reply)
	}
	hashReplicaBlobs(sum, nodes)
	hashKeyBlobs(free, nodes)
	checkPins(t, sum, free,
		"26bd08774a8a640247b7712d1168546f4d4a6478b13f5e8ce2ed0b019ccc311c",
		"54364d2d42af87fbf031eb78811b93f10995c8d2ded0bf051f426de2013ee03a")
}

// forwardedWrite is one write of forwardedMix: windowed when its key
// starts with w.
type forwardedWrite struct {
	key string
	ts  int64
	els []string
}

// forwardedMix is a seeded run of plain and windowed writes on both sides of
// break-even, every fifth one the write before it once more.
func forwardedMix() []forwardedWrite {
	r := rand.New(rand.NewSource(30))
	sizes := []int{1, 2, 5, 31, 32, 33, 200, 1500, 20000} // break-even at p=10 is ~4000 tokens
	const ts0 = int64(1_750_000_000_000)
	var mix []forwardedWrite
	var w forwardedWrite
	for i := 0; i < 100; i++ {
		if i%5 != 4 { // else the write before, once more
			w.els = make([]string, sizes[r.Intn(len(sizes))])
			for j := range w.els {
				w.els[j] = fmt.Sprintf("e%d", r.Intn(1<<20))
			}
			w.key, w.ts = fmt.Sprintf("p%d", r.Intn(12)), ts0+int64(r.Intn(90_000))
			if i%4 == 3 {
				w.key = fmt.Sprintf("w%d", r.Intn(4))
			}
		}
		mix = append(mix, w)
	}
	return mix
}

// hashReplicaBlobs writes every node's every key and its blob to sum.
func hashReplicaBlobs(sum io.Writer, nodes []*Node) {
	for _, n := range nodes {
		for _, key := range n.Store().Keys() {
			blob, _ := n.Store().Dump(key)
			fmt.Fprintf(sum, "%s %s %x\n", n.ID(), key, blob)
		}
	}
}

// hashKeyBlobs writes every key, in key order, with its distinct replica
// blobs in byte order to sum: what the cluster holds, whichever nodes hold
// it.
func hashKeyBlobs(sum io.Writer, nodes []*Node) {
	blobs := map[string][]string{}
	var keys []string
	for _, n := range nodes {
		for _, key := range n.Store().Keys() {
			blob, _ := n.Store().Dump(key)
			if blobs[key] == nil {
				keys = append(keys, key)
			}
			if !slices.Contains(blobs[key], string(blob)) {
				blobs[key] = append(blobs[key], string(blob))
			}
		}
	}
	slices.Sort(keys)
	for _, key := range keys {
		slices.Sort(blobs[key])
		for _, blob := range blobs[key] {
			fmt.Fprintf(sum, "%s %x\n", key, blob)
		}
	}
}

// checkPins compares the per-node pin sum and the placement-free pin free
// with their wanted hex digests.
func checkPins(t *testing.T, sum, free hash.Hash, wantSum, wantFree string) {
	t.Helper()
	if got := hex.EncodeToString(sum.Sum(nil)); got != wantSum {
		t.Errorf("replies and every node's replica blobs hash to %s, want %s", got, wantSum)
	}
	if got := hex.EncodeToString(free.Sum(nil)); got != wantFree {
		t.Errorf("replies and each key's distinct replica blobs hash to %s, want %s", got, wantFree)
	}
}
