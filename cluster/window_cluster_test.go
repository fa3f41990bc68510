package cluster

// End-to-end tests for the windowed workload through the cluster:
// WADD forwarded to every owner, WCOUNT scatter-gathering slot-wise
// ring DUMPs and merging them at the coordinator. All timestamps are
// explicit — the window subsystem is clockless by design, so these
// tests are deterministic fake-clock tests: the same stream yields the
// same slices, merges and estimates on every run, and windowed
// estimates are checked for EXACT equality against a local reference
// ring fed the same elements (slice merging is lossless).

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"exaloglog/server"
	"exaloglog/window"
)

// streamMS is the fixed stream epoch for the windowed cluster tests.
const streamMS = int64(1_750_000_000_000)

// TestClusterWindowedEndToEnd: a port-scan-shaped stream WADDed through
// different nodes is countable through ANY node, for any window, with
// exactly the estimate a single local ring would give — forwarded adds
// reach every owner, and the coordinator's slot-wise merge of the
// owners' rings loses nothing.
func TestClusterWindowedEndToEnd(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	clients := []*server.Client{h.dial(h.addr("n1")), h.dial(h.addr("n2")), h.dial(h.addr("n3"))}

	ref, err := window.New(testConfig(), time.Second, 60)
	if err != nil {
		t.Fatal(err)
	}
	const slices, perSlice = 10, 30
	for s := 0; s < slices; s++ {
		ts := streamMS + int64(s)*1000
		for e := 0; e < perSlice; e++ {
			el := fmt.Sprintf("src-%d-%d", s, e)
			// Writes rotate over the nodes: any node forwards to the owners.
			accepted, err := clients[(s+e)%len(clients)].WAdd("scan:host9", ts, el)
			if err != nil {
				t.Fatal(err)
			}
			if accepted != 1 {
				t.Fatalf("WADD accepted %d of 1 in-span elements", accepted)
			}
			ref.AddString(time.UnixMilli(ts), el)
		}
	}

	nowMS := streamMS + int64(slices-1)*1000
	for _, c := range clients {
		for _, w := range []time.Duration{time.Second, 3 * time.Second, 30 * time.Second} {
			got, err := wcountAt(c, "scan:host9", w, nowMS)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(ref.Estimate(time.UnixMilli(nowMS), w) + 0.5)
			if got != want {
				t.Errorf("WCOUNT %v = %d, want %d — slot-wise merge must equal a local ring", w, got, want)
			}
		}
		// Default now (the newest timestamp any owner observed) matches
		// the explicit form.
		defGot, err := c.WCount("scan:host9", 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		expGot, _ := wcountAt(c, "scan:host9", 3*time.Second, nowMS)
		if defGot != expGot {
			t.Errorf("WCOUNT default now = %d, explicit = %d", defGot, expGot)
		}
	}

	// The window slides: querying 30s past the burst leaves only what
	// was added since.
	if _, err := clients[0].WAdd("scan:host9", nowMS+60_000, "late-straggler"); err != nil {
		t.Fatal(err)
	}
	got, err := wcountAt(clients[1], "scan:host9", 3*time.Second, nowMS+60_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("slid window counts %d, want 1", got)
	}

	// WINFO aggregates the owners' rings; Dropped merges as the MAX of
	// the owner copies — each replica of the key dropped the same one
	// insert, so the merged view reports 1, not replicas×1 (and the
	// merge stays idempotent for replication retries).
	if _, err := clients[0].WAdd("scan:host9", streamMS-7_200_000, "ancient"); err != nil {
		t.Fatal(err)
	}
	info, err := clients[2].Do("WINFO", "scan:host9")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info, "dropped=1") || !strings.Contains(info, "slices=60") {
		t.Errorf("cluster WINFO %q lacks the merged drop count or geometry", info)
	}
	if _, err := clients[0].Do("WINFO", "no-such-window"); !errors.Is(err, server.ErrNoSuchKey) {
		t.Errorf("WINFO of a missing key: %v, want ErrNoSuchKey", err)
	}

	// Typed verbs stay typed through the cluster overrides, both ways.
	if _, err := clients[0].PFAdd("plain", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[1].PFCount("scan:host9"); !errors.Is(err, server.ErrWrongType) {
		t.Errorf("cluster PFCOUNT on a windowed key: %v, want ErrWrongType", err)
	}
	if _, err := clients[2].WAdd("plain", streamMS, "x"); !errors.Is(err, server.ErrWrongType) {
		t.Errorf("cluster WADD on a plain key: %v, want ErrWrongType", err)
	}
	if _, err := clients[0].WCount("plain", time.Second); !errors.Is(err, server.ErrWrongType) {
		t.Errorf("cluster WCOUNT on a plain key: %v, want ErrWrongType", err)
	}
	// A multi-owner failure (errors.Join of both replicas' WRONGTYPE)
	// must still be ONE wire line: the connections stay in sync and the
	// very next command on each sees its own reply.
	for i, c := range clients {
		if err := c.Ping(); err != nil {
			t.Fatalf("client %d desynchronized after wrongtype replies: %v", i, err)
		}
	}
}

// TestMLAddWrongTypeGroupDoesNotPoisonBatch: with the typed keyspace a
// forwarded add CAN be refused (WRONGTYPE). Sent alone it answers one -ERR
// line, leaves the key's bytes as they were and the connection in step; a
// Node.Add or Node.WindowAdd whose co-owner holds the other type reports
// server.ErrWrongType, and the coordinator keeps its pooled connection.
func TestMLAddWrongTypeGroupDoesNotPoisonBatch(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 2, replicas: 2})
	n1, n2 := h.node("n1"), h.node("n2")
	if _, err := n2.Store().WindowAdd("wkey", time.UnixMilli(streamMS), "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Store().Add("pkey", "x"); err != nil {
		t.Fatal(err)
	}
	wBefore, _ := n2.Store().Dump("wkey")
	pBefore, _ := n2.Store().Dump("pkey")

	c := h.dial(n2.Addr())
	if _, err := c.Do("CLUSTER", "MLADD", "p", "wkey", batchB64(t, "a")); !errors.Is(err, server.ErrWrongType) {
		t.Fatalf("a plain add to a windowed key: %v, want ErrWrongType", err)
	}
	if reply, err := c.Do("CLUSTER", "MLADD", "p", "other", batchB64(t, "b")); err != nil || reply != "1" {
		t.Fatalf("the next add on the connection: %q, %v; want 1", reply, err)
	}

	// Through a coordinator whose co-owner holds the other type.
	if _, err := n1.Add("wkey", "z"); !errors.Is(err, server.ErrWrongType) {
		t.Errorf("Add to a key the co-owner holds windowed: %v, want ErrWrongType", err)
	}
	pooled := n1.peers.idleConns(n2.Addr())
	if _, err := n1.WindowAdd("pkey", streamMS, "z"); !errors.Is(err, server.ErrWrongType) {
		t.Errorf("WindowAdd to a key the co-owner holds plain: %v, want ErrWrongType", err)
	}
	if kept := n1.peers.idleConns(n2.Addr()); len(pooled) == 0 || !slices.Equal(kept, pooled) {
		t.Error("the pool dropped its connection on a refused MLADD")
	}
	if after, _ := n2.Store().Dump("wkey"); !bytes.Equal(after, wBefore) {
		t.Error("the refused adds changed the co-owner's windowed key")
	}
	if after, _ := n2.Store().Dump("pkey"); !bytes.Equal(after, pBefore) {
		t.Error("the refused adds changed the co-owner's plain key")
	}
}

// TestPoolKeepsConnectionOnWrongType: WRONGTYPE is a routine reply of
// the typed keyspace, not a transport failure — the connection must go
// back to the idle list (no redial churn on the hot forward path) and the
// reply must count as liveness evidence.
func TestPoolKeepsConnectionOnWrongType(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 2, replicas: 1}).running()
	n1, n2 := nodes[0], nodes[1]
	if _, err := n2.Store().WindowAdd("wkey", time.UnixMilli(streamMS), "x"); err != nil {
		t.Fatal(err)
	}
	// Prime the idle connection and remember its identity.
	if _, err := n1.peers.do(n2.Addr(), "PING"); err != nil {
		t.Fatal(err)
	}
	before := n1.peers.idleConns(n2.Addr())
	if len(before) == 0 {
		t.Fatal("no idle connection after PING")
	}
	plain := base64.StdEncoding.EncodeToString(server.EncodeFrame([]server.KeyBlob{{Key: "wkey", Blob: denseBlob(t, "y")}}))
	height := fmt.Sprintf("h=%d", n2.Map().Height())
	if _, err := n1.peers.do(n2.Addr(), "CLUSTER", "XFER", "FRAME", height, plain); !errors.Is(err, server.ErrWrongType) {
		t.Fatalf("a frame merging a plain sketch into a windowed key: %v, want ErrWrongType", err)
	}
	if after := n1.peers.idleConns(n2.Addr()); !slices.Equal(after, before) {
		t.Error("pool dropped the connection on a WRONGTYPE reply")
	}
}

// TestClusterWindowedRebalance: windowed keys ride the ordinary
// membership machinery — a join moves them to their new owners with
// slot-wise frame merges, a leave drains them — and every windowed
// estimate is unchanged afterwards, from every surviving node.
func TestClusterWindowedRebalance(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	nodes := h.running()
	const keys = 24
	keyName := func(k int) string { return fmt.Sprintf("win-%d", k) }
	for k := 0; k < keys; k++ {
		for s := 0; s < 5; s++ {
			for e := 0; e < 6; e++ {
				ts := streamMS + int64(s)*1000
				if _, err := nodes[k%3].WindowAdd(keyName(k), ts, fmt.Sprintf("el-%d-%d-%d", k, s, e)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	nowMS := streamMS + 4_000
	ref := make([]float64, keys)
	for k := 0; k < keys; k++ {
		v, err := nodes[0].WindowCount(keyName(k), 5*time.Second, nowMS)
		if err != nil {
			t.Fatal(err)
		}
		if v < 1 {
			t.Fatalf("key %s counts %v before the membership churn", keyName(k), v)
		}
		ref[k] = v
	}

	// Join: the delta rebalance must ship window rings (slot-wise
	// blobs) to the owners the keys gained.
	joiner := h.start("n4")
	if err := joiner.Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if joiner.Store().Len() == 0 {
		t.Error("no windowed keys moved to the joining node")
	}
	for k := 0; k < keys; k++ {
		for _, n := range append([]*Node{joiner}, nodes...) {
			got, err := n.WindowCount(keyName(k), 5*time.Second, nowMS)
			if err != nil {
				t.Fatalf("%s: %v", n.ID(), err)
			}
			if got != ref[k] {
				t.Errorf("%s: count %s = %v after join, want %v", n.ID(), keyName(k), got, ref[k])
			}
		}
	}

	// Leave: the departing node drains its rings to the remaining owners.
	if err := joiner.Leave(); err != nil {
		t.Fatal(err)
	}
	if got := joiner.Store().Len(); got != 0 {
		t.Errorf("left node still holds %d keys", got)
	}
	for k := 0; k < keys; k++ {
		for _, n := range nodes {
			got, err := n.WindowCount(keyName(k), 5*time.Second, nowMS)
			if err != nil {
				t.Fatalf("%s: %v", n.ID(), err)
			}
			if got != ref[k] {
				t.Errorf("%s: count %s = %v after leave, want %v", n.ID(), keyName(k), got, ref[k])
			}
		}
	}
}

// TestGatherSkipsReplicasInStep: blobs are canonical — token sets, and
// rings of them — so two owners in step dump the very same bytes, and the
// gather decodes and merges a key once, not once a replica. A replica that
// diverged still merges: the count is the union of what the owners hold.
func TestGatherSkipsReplicasInStep(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 2, replicas: 2}).running()
	ref, _ := window.New(testConfig(), time.Second, 60)
	for s := 0; s < 5; s++ {
		for e := 0; e < 40; e++ {
			ts, el := streamMS+int64(s)*1000, fmt.Sprintf("src-%d-%d", s, e)
			if _, err := nodes[s%2].WindowAdd("ring", ts, el); err != nil {
				t.Fatal(err)
			}
			if _, err := nodes[e%2].Add("plain", el); err != nil {
				t.Fatal(err)
			}
			ref.AddString(time.UnixMilli(ts), el)
		}
	}
	merges := func() (n int) {
		blobs, err := nodes[0].gatherOwnerBlobs(nodes[0].currentMap(), []string{"ring", "plain"})
		if err != nil || len(blobs) != 4 {
			t.Fatalf("gathered %d blobs, err %v; want both owners' copies of both keys", len(blobs), err)
		}
		eachDistinctCopy(blobs, func(ownerBlob) error { n++; return nil })
		return n
	}
	if got := merges(); got != 2 {
		t.Errorf("two owners in step: %d blobs merged for 2 keys, want one a key", got)
	}
	// One replica alone takes a write: its ring differs and is merged too.
	late := time.UnixMilli(streamMS + 5000)
	if _, err := nodes[1].Store().WindowAdd("ring", late, "only-on-n2"); err != nil {
		t.Fatal(err)
	}
	ref.AddString(late, "only-on-n2")
	if got := merges(); got != 3 {
		t.Errorf("one diverged ring: %d blobs merged, want 3", got)
	}
	for i, n := range nodes {
		got, err := n.WindowCount("ring", time.Minute, 0)
		if want := ref.Estimate(ref.Latest(), time.Minute); err != nil || got != want {
			t.Errorf("WCOUNT via node %d: %v, %v; want the union %v", i, got, err, want)
		}
	}
}

// wcountAt sends WCOUNT key window ts, the form with an explicit window
// end, and parses the count.
func wcountAt(c *server.Client, key string, window time.Duration, tsMillis int64) (int64, error) {
	reply, err := c.Do("WCOUNT", key, window.String(), strconv.FormatInt(tsMillis, 10))
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(reply, 10, 64)
}
