package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"exaloglog/internal/core"
	"exaloglog/server"
)

const testP = 10

func testConfig() core.Config { return core.RecommendedML(testP) }

// startTCPCluster starts n nodes (n1..nN) on loopback TCP with the given
// replica factor, each joined through n1, for the acceptance test and the
// benchmarks; nodes[0] is the seed. Cleanup closes all of them.
func startTCPCluster(tb testing.TB, n, replicas int) []*Node {
	tb.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := NewNode(fmt.Sprintf("n%d", i+1), testConfig(), replicas)
		if err != nil {
			tb.Fatal(err)
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { node.Close() })
		if i > 0 {
			if err := node.Join(nodes[0].Addr()); err != nil {
				tb.Fatal(err)
			}
		}
		nodes[i] = node
	}
	return nodes
}

// TestClusterAcceptance is the scenario from the issue: a 3-node cluster
// with replica factor 2 where (1) a key written through node A is
// countable on nodes B and C with the same estimate, (2) after a node
// leaves and rebalance completes every key's estimate is unchanged, and
// (3) a cluster-wide union PFCOUNT equals the single-node result on the
// same data. Its nodes talk over loopback TCP, where every other
// cluster test runs on the in-memory fabric.
func TestClusterAcceptance(t *testing.T) {
	t.Parallel()
	nodes := startTCPCluster(t, 3, 2)

	// Reference: one plain sketch per key fed the same elements.
	ref := map[string]*core.Sketch{
		"visits:mon": core.MustNew(testConfig()),
		"visits:tue": core.MustNew(testConfig()),
	}
	for i := 0; i < 5000; i++ {
		el := fmt.Sprintf("user-%d", i)
		ref["visits:mon"].AddString(el)
		if _, err := nodes[0].Add("visits:mon", el); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2500; i < 7500; i++ { // half-overlapping second key
		el := fmt.Sprintf("user-%d", i)
		ref["visits:tue"].AddString(el)
		if _, err := nodes[1].Add("visits:tue", el); err != nil {
			t.Fatal(err)
		}
	}

	// (1) Same estimate from every node, matching the reference sketch.
	for key, rs := range ref {
		want := rs.Estimate()
		for _, n := range nodes {
			got, err := n.Count(key)
			if err != nil {
				t.Fatalf("%s: count %q: %v", n.ID(), key, err)
			}
			if got != want {
				t.Errorf("%s: count %q = %v, want %v", n.ID(), key, got, want)
			}
		}
	}

	// (3) Cluster-wide union equals the single-node union on the same data.
	refUnion, err := core.MergeCompatible(ref["visits:mon"], ref["visits:tue"])
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		got, err := n.Count("visits:mon", "visits:tue")
		if err != nil {
			t.Fatal(err)
		}
		if got != refUnion.Estimate() {
			t.Errorf("%s: union count = %v, want %v", n.ID(), got, refUnion.Estimate())
		}
	}

	// Replica factor 2 holds: every key lives on exactly two nodes.
	for key := range ref {
		copies := 0
		for _, n := range nodes {
			if _, ok := n.Store().Dump(key); ok {
				copies++
			}
		}
		if copies != 2 {
			t.Errorf("key %q has %d local copies, want 2", key, copies)
		}
	}

	// (2) A node leaves gracefully; estimates are unchanged on survivors.
	if err := nodes[2].Leave(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[:2] {
		if got := n.Map().Len(); got != 2 {
			t.Fatalf("%s: map has %d nodes after leave, want 2", n.ID(), got)
		}
		for key, rs := range ref {
			got, err := n.Count(key)
			if err != nil {
				t.Fatalf("%s: count %q after leave: %v", n.ID(), key, err)
			}
			if got != rs.Estimate() {
				t.Errorf("%s: count %q after leave = %v, want %v", n.ID(), key, got, rs.Estimate())
			}
		}
		got, err := n.Count("visits:mon", "visits:tue")
		if err != nil {
			t.Fatal(err)
		}
		if got != refUnion.Estimate() {
			t.Errorf("%s: union after leave = %v, want %v", n.ID(), got, refUnion.Estimate())
		}
	}
	// The leaver drained everything.
	if got := nodes[2].Store().Len(); got != 0 {
		t.Errorf("left node still holds %d sketches, want 0", got)
	}
}

// TestClusterWireProtocol drives a 3-node cluster purely over TCP with
// the stock server.Client: any node answers any command.
func TestClusterWireProtocol(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	nodes := h.running()
	a := h.dial(nodes[0].Addr())
	b := h.dial(nodes[1].Addr())

	if _, err := a.PFAdd("k", "x", "y", "z"); err != nil {
		t.Fatal(err)
	}
	got, err := b.PFCount("k")
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("PFCount via node B = %d, want 3", got)
	}

	// KEYS is cluster-wide from any node.
	keys, err := b.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "k" {
		t.Errorf("Keys = %v, want [k]", keys)
	}

	// PFMERGE replicates the union to dest's owners.
	if _, err := a.PFAdd("k2", "z", "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Do("PFMERGE", "u", "k", "k2"); err != nil {
		t.Fatal(err)
	}
	got, err = a.PFCount("u")
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("PFCount(u) = %d, want 4", got)
	}

	// CLUSTER INFO and CLUSTER MAP answer on every node.
	info, err := a.Do("CLUSTER", "INFO")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info, "nodes=3") || !strings.Contains(info, "replicas=2") {
		t.Errorf("CLUSTER INFO = %q, want nodes=3 replicas=2", info)
	}
	mreply, err := b.Do("CLUSTER", "MAP")
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMap(strings.Fields(mreply))
	if err != nil {
		t.Fatalf("decode CLUSTER MAP %q: %v", mreply, err)
	}
	if m.Len() != 3 || m.Replicas != 2 {
		t.Errorf("CLUSTER MAP = %q, want 3 nodes replicas=2", mreply)
	}

	// DEL removes the key cluster-wide.
	if reply, err := b.Do("DEL", "k"); err != nil || reply != "1" {
		t.Fatalf("DEL k = %q, %v, want 1 (existed)", reply, err)
	}
	got, err = a.PFCount("k")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("PFCount(k) after DEL = %d, want 0", got)
	}
}

// TestClusterLeaveViaWire removes a node with the admin verb (as if it
// had crashed); the surviving replica re-replicates every key so the
// replica factor is restored.
func TestClusterLeaveViaWire(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	nodes := h.running()
	for i := 0; i < 50; i++ {
		if _, err := nodes[0].Add(fmt.Sprintf("key-%d", i), "a", "b", "c"); err != nil {
			t.Fatal(err)
		}
	}
	c := h.dial(nodes[0].Addr())
	reply, err := c.Do("CLUSTER", "LEAVE", nodes[2].ID())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "OK") {
		t.Fatalf("CLUSTER LEAVE reply %q", reply)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, err := nodes[1].Count(key)
		if err != nil {
			t.Fatal(err)
		}
		if int64(got+0.5) != 3 {
			t.Errorf("count %q after leave = %v, want ≈3", key, got)
		}
		copies := 0
		for _, n := range nodes[:2] {
			if _, ok := n.Store().Dump(key); ok {
				copies++
			}
		}
		if copies != 2 {
			t.Errorf("key %q has %d copies on survivors, want 2", key, copies)
		}
	}
}

// TestClusterSingleNode: a one-node cluster behaves like a plain server.
func TestClusterSingleNode(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 1, replicas: 2}).running()
	n := nodes[0]
	if _, err := n.Add("k", "a", "b"); err != nil {
		t.Fatal(err)
	}
	got, err := n.Count("k")
	if err != nil {
		t.Fatal(err)
	}
	if int64(got+0.5) != 2 {
		t.Errorf("Count = %v, want ≈2", got)
	}
	if m := n.Map(); m.Len() != 1 {
		t.Errorf("map size = %d, want 1", m.Len())
	}
}

// TestJoinIsIdempotent: re-joining with the same ID and address keeps
// the map stable.
func TestJoinIsIdempotent(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 2, replicas: 2}).running()
	before := nodes[0].Map().Encode()
	if err := nodes[1].Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if got := nodes[0].Map().Encode(); got != before {
		t.Errorf("map changed %s → %s on idempotent re-join", before, got)
	}
}

// TestRejoinAfterRestartLearnsMap: a node that restarts (same ID, same
// address, fresh store) and re-joins hits the seed's idempotent-join
// path, which does not re-broadcast the map — the joiner must pull it
// itself or it would answer counts from its stale self-only view.
func TestRejoinAfterRestartLearnsMap(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 2, replicas: 1})
	for i := 0; i < 20; i++ {
		if _, err := h.node("n1").Add(fmt.Sprintf("key-%d", i), "a", "b"); err != nil {
			t.Fatal(err)
		}
	}
	// Pick a key owned by n1 so it survives n2's restart with replicas=1.
	var key string
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%d", i)
		if owners := h.node("n1").Map().Owners(k); owners[0].ID == "n1" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by n1")
	}

	addr := h.addr("n2")
	if err := h.node("n2").Close(); err != nil {
		t.Fatal(err)
	}
	restarted := h.startAt("n2", addr)
	if err := restarted.Join(h.addr("n1")); err != nil {
		t.Fatal(err)
	}
	if got := restarted.Map().Len(); got != 2 {
		t.Fatalf("restarted node's map has %d members, want 2 (stale self-only map?)", got)
	}
	got, err := restarted.Count(key)
	if err != nil {
		t.Fatal(err)
	}
	if int64(got+0.5) != 2 {
		t.Errorf("count %q via restarted node = %v, want ≈2", key, got)
	}
}

// TestJoinWithLocalData: a node that already holds sketches (e.g.
// restored from a snapshot) joins on a fresh address. The seed answers
// JOIN only after the joiner's SETMAP rebalance — which pushes blobs
// back to the seed — completes, so this deadlocks unless that push gets a
// connection other than the one the JOIN waits on.
func TestJoinWithLocalData(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 1, replicas: 2})
	joiner := h.start("n2")
	joiner.Store().Add("restored", "a", "b", "c")

	done := make(chan error, 1)
	go func() { done <- joiner.Join(h.addr("n1")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Join deadlocked with local data present")
	}
	got, err := h.node("n1").Count("restored")
	if err != nil {
		t.Fatal(err)
	}
	if int64(got+0.5) != 3 {
		t.Errorf("count of restored key via seed = %v, want ≈3", got)
	}
}

// TestAddRejectsProtocolUnsafeTokens: keys/elements the line protocol
// cannot carry are rejected up front instead of silently diverging
// between local and remote owners.
func TestAddRejectsProtocolUnsafeTokens(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 1, replicas: 1}).running()
	n := nodes[0]
	for _, c := range []struct{ key, el string }{
		{"k", "a b"}, {"k", ""}, {"bad key", "a"}, {"", "a"}, {"k", "a\nDEL k"},
	} {
		if _, err := n.Add(c.key, c.el); err == nil {
			t.Errorf("Add(%q, %q) succeeded, want error", c.key, c.el)
		}
	}
	if _, err := n.Count("bad key"); err == nil {
		t.Error("Count of whitespace key succeeded, want error")
	}
	if err := n.MergeKeys("dest", "bad src"); err == nil {
		t.Error("MergeKeys with whitespace source succeeded, want error")
	}
	if n.Store().Len() != 0 {
		t.Errorf("rejected adds created %d keys", n.Store().Len())
	}
	// The rule and its wording, for the empty token and each of the four
	// bytes at the start, in the middle and at the end.
	bad := []string{""}
	for _, c := range []string{" ", "\t", "\r", "\n"} {
		bad = append(bad, c+"ab", "a"+c+"b", "ab"+c)
	}
	for _, s := range bad {
		want := fmt.Sprintf("cluster: element %q must be non-empty and free of whitespace", s)
		if err := validToken("element", s); err == nil || err.Error() != want {
			t.Errorf("validToken(%q): %v, want %q", s, err, want)
		}
	}
	if err := validToken("key", "visits:é\u00a0"); err != nil {
		t.Errorf("a key without the four bytes: %v", err)
	}
}

// TestMergeKeysKeepsDestinationTTL: PFMERGE ships the union to dest's
// owners as a one-record XFER frame whose deadline is 0 — "no deadline to
// impose" — so a destination that already has a lifetime keeps it on
// every owner, the remote ones included.
func TestMergeKeysKeepsDestinationTTL(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 3, replicas: 2}).running()
	// A destination n1 does not own: both frames go over the wire.
	dest := findKeyWhere(t, nodes[0].Map(), func(ids []string) bool { return !slices.Contains(ids, "n1") })
	if _, err := nodes[0].Add(dest, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Add("src", "c", "d", "e"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Hour).UnixMilli()
	if ok, err := nodes[0].ExpireAt(dest, deadline); err != nil || !ok {
		t.Fatalf("ExpireAt = %v, %v", ok, err)
	}
	if err := nodes[0].MergeKeys(dest, "src"); err != nil {
		t.Fatal(err)
	}
	if got := mustCount(t, nodes[0], dest); int64(got+0.5) != 5 {
		t.Errorf("merged count = %v, want 5", got)
	}
	owners := 0
	for _, n := range nodes {
		dl, ok := n.Store().DeadlineOf(dest)
		if !ok {
			continue
		}
		owners++
		if dl != deadline {
			t.Errorf("%s: deadline after PFMERGE = %d, want %d", n.ID(), dl, deadline)
		}
	}
	if owners != 2 {
		t.Errorf("%d nodes hold the destination, want 2", owners)
	}
}

// TestMergeKeysFromStaleCoordinator: a coordinator one change behind
// PFMERGEs into a dest whose owners moved in the newer map. Its frames are
// refused with -STALE, it takes the owner's map and merges again under it,
// so by the time PFMERGE returns the union is on dest's current owners,
// byte for byte what one sketch fed every element holds, and not on an
// owner of the old map only. A PFMERGE onto a window key is still WRONGTYPE.
func TestMergeKeysFromStaleCoordinator(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	n4 := h.start("n4")
	old := h.node("n1").Map()
	cur := old.withNode("n4", n4.Addr())

	// dest: owned by neither the coordinator n1 nor n4 in the old map, by
	// n4 and not n1 in the new one. Sources and the window key keep their
	// owners, so no data has to move for the new map to answer for them.
	var dest, wdest string
	var sources []string
	for i := 0; dest == "" || wdest == "" || len(sources) < 8; i++ {
		k := fmt.Sprintf("merge-%d", i)
		was, is := ownerIDs(old, k), ownerIDs(cur, k)
		switch {
		case dest == "" && !slices.Contains(was, "n1") && slices.Contains(is, "n4") && !slices.Contains(is, "n1"):
			dest = k
		case slices.Equal(was, is) && !slices.Contains(is, "n1"):
			if wdest == "" {
				wdest = k
			} else if len(sources) < 8 {
				sources = append(sources, k)
			}
		}
	}
	ref, err := core.NewHybrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range append([]string{dest}, sources...) {
		els := []string{fmt.Sprintf("%s-a", key), fmt.Sprintf("%s-b", key), fmt.Sprintf("shared-%d", i%3)}
		if _, err := h.node("n1").Add(key, els...); err != nil {
			t.Fatal(err)
		}
		for _, el := range els {
			ref.AddString(el)
		}
	}
	if _, err := h.node("n1").WindowAdd(wdest, streamMS, "x"); err != nil {
		t.Fatal(err)
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Every node but the coordinator installs the new map.
	for _, n := range []*Node{h.node("n2"), h.node("n3"), n4} {
		if !n.swapMap(cur) {
			t.Fatalf("fixture: %s did not take the new map", n.ID())
		}
	}

	c := h.dial(h.addr("n1"))
	if _, err := c.Do(append([]string{"PFMERGE", dest}, sources...)...); err != nil {
		t.Fatalf("PFMERGE through the stale coordinator: %v", err)
	}
	if got := h.node("n1").Map(); got.Encode() != cur.Encode() {
		t.Errorf("coordinator holds %s after the refusal, want %s", got.Encode(), cur.Encode())
	}
	for _, id := range ownerIDs(cur, dest) {
		got, ok := h.node(id).Store().Dump(dest)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("current owner %s holds %d bytes of dest (present %v), want the %d of a sketch fed sources and dest", id, len(got), ok, len(want))
		}
	}
	for _, id := range ownerIDs(old, dest) {
		if got, _ := h.node(id).Store().Dump(dest); !slices.Contains(ownerIDs(cur, dest), id) && bytes.Equal(got, want) {
			t.Errorf("the union landed on %s, an owner of the old map only", id)
		}
	}
	if _, err := c.Do(append([]string{"PFMERGE", wdest}, sources...)...); !errors.Is(err, server.ErrWrongType) {
		t.Errorf("PFMERGE onto a window key: %v, want WRONGTYPE", err)
	}
}

// TestAbsorbIsIdempotent: re-sending the same blob never changes the
// estimate — the property rebalance safety rests on.
func TestAbsorbIsIdempotent(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 2, replicas: 1}).running()
	if _, err := nodes[0].Add("k", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	want, err := nodes[0].Count("k")
	if err != nil {
		t.Fatal(err)
	}
	// Find the owner's blob and absorb it into both nodes repeatedly.
	var blob []byte
	for _, n := range nodes {
		if b, ok := n.Store().Dump("k"); ok {
			blob = b
		}
	}
	if blob == nil {
		t.Fatal("no node holds k")
	}
	for i := 0; i < 3; i++ {
		for _, n := range nodes {
			if err := n.Store().MergeBlob("k", blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := nodes[1].Count("k")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("estimate drifted after redundant absorbs: %v → %v", want, got)
	}
}

// TestCountUnitesDivergentReplicas: a count skips a replica's copy only when
// it is byte for byte a copy already merged; replicas that each hold an
// element the other missed both contribute.
func TestCountUnitesDivergentReplicas(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 2, replicas: 2})
	for _, key := range []string{"same", "split"} {
		if _, err := h.node("n1").Add(key, "shared-a", "shared-b"); err != nil {
			t.Fatal(err)
		}
	}
	// Local-only writes, bypassing replication: the copies of "split" diverge.
	if _, err := h.node("n1").Store().Add("split", "only-on-n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.node("n2").Store().Add("split", "only-on-n2"); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{"same": 2, "split": 4} {
		for _, id := range []string{"n1", "n2"} {
			got, err := h.node(id).Count(key)
			if err != nil {
				t.Fatal(err)
			}
			if int64(got+0.5) != want {
				t.Errorf("count of %q via %s = %v, want %d", key, id, got, want)
			}
		}
	}
	if got, err := h.node("n2").Count("same", "split"); err != nil || int64(got+0.5) != 4 {
		t.Errorf("union count = %v, %v; want 4", got, err)
	}
}
