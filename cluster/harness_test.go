package cluster

// An in-process multi-node cluster harness on a fabric of its own
// (fabric_test.go), whose faults — partition a node, delay or gate a verb
// on the wire, intercept single messages, stall a node — plus crashing a
// node and restarting it from its snapshot make membership races that
// would otherwise only surface in production reproducible, deterministic
// enough to assert on, and run under `go test -race`.
//
// Failure detection is tested under a FAKE CLOCK: gossip time is a
// logical round counter advanced only by harness.tick, which gives
// every running node one Gossip turn per round in sorted-ID order.
// Nothing in the detector reads a wall clock, so a chaos test that
// says "crash, then 5 rounds pass" observes exactly the same suspicion
// and eviction sequence on every run — no sleeps, no flakes.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exaloglog/internal/core"
	"exaloglog/server"
)

// harnessOpts holds what tests vary in their clusters; a zero field keeps
// the default.
type harnessOpts struct {
	nodes    int              // booted at creation: n1..nN, each joined through n1
	replicas int              // the replica factor of every node
	window   int              // non-zero: the transfer window (frames a round trip) of every node
	clock    func() time.Time // non-nil: the store clock every node judges expiry against
}

type harness struct {
	t    *testing.T
	opts harnessOpts
	fab  *fabric // the harness's own: no fault set on it reaches another harness
	dir  string

	mu    sync.Mutex
	nodes map[string]*Node  // running nodes by ID
	addrs map[string]string // id → last listen address (survives a crash)
}

// newHarness makes a fabric and boots o.nodes nodes on it. Every node the
// harness starts has a snapshot path and the harness-wide suspicion
// window; all of them close when t ends.
func newHarness(t *testing.T, o harnessOpts) *harness {
	t.Helper()
	h := &harness{
		t:     t,
		opts:  o,
		fab:   newFabric(),
		dir:   t.TempDir(),
		nodes: make(map[string]*Node),
		addrs: make(map[string]string),
	}
	t.Cleanup(func() {
		h.fab.openGates() // a request parked at a gate would hold its node's Close
		for _, n := range h.running() {
			n.Close()
		}
	})
	for i := 1; i <= o.nodes; i++ {
		node := h.start(fmt.Sprintf("n%d", i))
		if i > 1 {
			if err := node.Join(h.addr("n1")); err != nil {
				t.Fatal(err)
			}
		}
	}
	return h
}

// stall replaces node id with a black hole: the node is crashed and its
// address bound to an endpoint that reads forever without ever replying —
// the pathological peer that, before I/O deadlines, hung every forward and
// rebalance touching it. Returns the stalled address.
func (h *harness) stall(id string) string {
	h.t.Helper()
	h.crash(id)
	addr := h.addr(id)
	h.fab.stall(h.t, id, addr)
	return addr
}

// waitFor polls cond until it holds, failing the test after deadline.
// The poll is synchronization only — the asserted ordering comes from
// gates, not from how fast this loop spins.
func (h *harness) waitFor(deadline time.Duration, what string, cond func() bool) {
	h.t.Helper()
	end := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(end) {
			h.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// start boots node id at a fresh address, loading its snapshot when one
// exists.
func (h *harness) start(id string) *Node { return h.startAt(id, "") }

// startAt is start at addr: a recorded address on restart.
func (h *harness) startAt(id, addr string) *Node {
	h.t.Helper()
	n, err := NewNode(id, testConfig(), h.opts.replicas)
	if err != nil {
		h.t.Fatal(err)
	}
	if h.opts.clock != nil {
		// Before LoadFile: a snapshot load judges expired-on-disk records
		// against the store clock, which must already be the fake one.
		n.Store().SetClock(h.opts.clock)
	}
	snap := h.snapPath(id)
	if _, err := os.Stat(snap); err == nil {
		if err := n.Store().LoadFile(snap); err != nil {
			h.t.Fatal(err)
		}
	}
	n.SetSnapshotPath(snap)
	n.gsp.suspectAfter = testSuspectAfter
	if h.opts.window != 0 {
		n.xfer.window = h.opts.window
	}
	n.peers.connect = h.fab.dialer(id)
	ln, err := h.fab.listen(id, addr)
	if err == nil {
		err = n.serve(ln)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	h.mu.Lock()
	h.nodes[id] = n
	h.addrs[id] = n.Addr()
	h.mu.Unlock()
	return n
}

// crash kills node id WITHOUT a final snapshot — whatever save wrote
// earlier is all a restart gets, like a real power loss.
func (h *harness) crash(id string) {
	h.mu.Lock()
	n := h.nodes[id]
	delete(h.nodes, id)
	h.mu.Unlock()
	if n != nil {
		n.Close()
	}
}

// save snapshots node id's store (sketches + cluster map), as elld's
// SIGTERM/SAVE path would.
func (h *harness) save(id string) {
	h.t.Helper()
	if err := h.node(id).Store().SaveFile(h.snapPath(id)); err != nil {
		h.t.Fatal(err)
	}
}

// restart brings a crashed node back on its old address from its last
// snapshot and joins it through the peers that snapshot recorded, as elld
// does — no seed address.
func (h *harness) restart(id string) *Node {
	h.t.Helper()
	n := h.startAt(id, h.addr(id))
	if err := n.Join(recordedPeers(n)...); err != nil {
		h.t.Fatalf("rejoin %s: %v", id, err)
	}
	return n
}

// recordedPeers returns the addresses of the other members n's map holds:
// after a restart, the peers its snapshot recorded.
func recordedPeers(n *Node) []string {
	var addrs []string
	for _, mem := range n.Map().Members() {
		if mem.ID != n.ID() {
			addrs = append(addrs, mem.Addr)
		}
	}
	return addrs
}

// load adds els elements to each of keys keys through node via, one Add
// an element, and returns every key's count through n1.
func (h *harness) load(via string, keyName func(int) string, keys, els int) []float64 {
	h.t.Helper()
	ref := make([]float64, keys)
	for k := range ref {
		for e := 0; e < els; e++ {
			if _, err := h.node(via).Add(keyName(k), fmt.Sprintf("el-%d-%d", k, e)); err != nil {
				h.t.Fatal(err)
			}
		}
		ref[k] = mustCount(h.t, h.node("n1"), keyName(k))
	}
	return ref
}

// testSuspectAfter is the harness-wide suspicion window in gossip
// rounds: small enough to keep chaos tests fast, large enough that a
// single missed exchange cannot trip the detector.
const testSuspectAfter = 3

// tick is the fake clock: advance gossip time by `rounds` logical
// rounds, each giving every running node one Gossip turn in sorted-ID
// order. Returns the auto-evictions that occurred, as evicted-id →
// evicting coordinator. Deterministic — the only concurrency inside a
// round is each node's own fan-out, which the caller's turn blocks on.
func (h *harness) tick(rounds int) map[string]string {
	h.t.Helper()
	evicted := make(map[string]string)
	for r := 0; r < rounds; r++ {
		for _, n := range h.running() {
			for _, id := range n.Gossip() {
				evicted[id] = n.ID()
			}
		}
	}
	return evicted
}

func (h *harness) snapPath(id string) string { return h.dir + "/" + id + ".elss" }

func (h *harness) node(id string) *Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[id]
}

func (h *harness) addr(id string) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.addrs[id]
}

// running returns all live nodes sorted by ID.
func (h *harness) running() []*Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Node, 0, len(h.nodes))
	for _, n := range h.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// do runs one admin command against node id on a fresh operator
// connection (operator traffic bypasses the fabric's faults).
func (h *harness) do(id string, parts ...string) (string, error) {
	conn, err := h.fab.dial("", h.addr(id))
	if err != nil {
		return "", err
	}
	c := server.NewClient(conn)
	defer c.Close()
	return c.Do(parts...)
}

// conn opens an operator connection to addr, closed when the test ends.
func (h *harness) conn(addr string) net.Conn {
	h.t.Helper()
	conn, err := h.fab.dial("", addr)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { conn.Close() })
	return conn
}

// dial is conn as a client.
func (h *harness) dial(addr string) *server.Client {
	h.t.Helper()
	c := server.NewClient(h.conn(addr))
	h.t.Cleanup(func() { c.Close() })
	return c
}

// serve serves srv at a fresh address of the fabric until the test ends.
func (h *harness) serve(srv *server.Server) {
	h.t.Helper()
	ln, err := h.fab.listen("", "")
	if err == nil {
		err = srv.Serve(ln)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { srv.Close() })
}

// converge drives digest rounds — the one anti-entropy path: a refused
// DSUM reconciles maps, the round's drain moves strays — until every
// running node holds a byte-identical map, failing the test after
// deadline. It never calls Gossip, so the failure detector's logical
// clock stands still. Returns the converged encoding.
func (h *harness) converge(deadline time.Duration) string {
	h.t.Helper()
	end := time.Now().Add(deadline)
	for {
		for _, n := range h.running() {
			n.DigestSync() // best-effort: unreachable peers just miss this round
		}
		encodings := make(map[string]bool)
		var enc string
		for _, n := range h.running() {
			enc = n.Map().Encode()
			encodings[enc] = true
		}
		if len(encodings) == 1 {
			return enc
		}
		if time.Now().After(end) {
			for _, n := range h.running() {
				h.t.Logf("  %s holds %s", n.ID(), n.Map().Encode())
			}
			h.t.Fatal("cluster maps failed to converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- tests -------------------------------------------------------------

// TestChaosConcurrentMembership: goroutines hammer JOIN/LEAVE through
// different coordinators (with SETMAP broadcasts artificially delayed
// so they overlap) while writers keep adding elements. Each churner's
// last operation is retried until it answers +OK. Afterwards every node
// must hold a byte-identical map in which each churner is as its last
// operation left it, and — because ExaLogLog merging is lossless — the
// cluster-wide count of every key must exactly equal a golden reference
// sketch fed the same elements; in particular it can never underestimate
// the exact distinct count.
func TestChaosConcurrentMembership(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("chaos harness skipped in -short")
	}
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	h.fab.delay("SETMAP", 2*time.Millisecond)

	churners := []string{"x1", "x2"}
	for _, id := range churners {
		h.start(id)
	}
	coords := []string{"n1", "n2", "n3"}

	const keys = 24
	keyName := func(k int) string { return fmt.Sprintf("chaos-%d", k) }
	ref := make([]*core.Sketch, keys)
	exact := make([]map[string]bool, keys)
	for k := range ref {
		ref[k] = core.MustNew(testConfig())
		exact[k] = make(map[string]bool)
	}
	var refMu sync.Mutex

	// x1 ends on a JOIN, x2 on a LEAVE.
	lastIn := map[string]bool{"x1": true, "x2": false}
	var wg sync.WaitGroup
	for ci, id := range churners {
		wg.Add(1)
		go func(ci int, id string) {
			defer wg.Done()
			ops := 10
			if lastIn[id] {
				ops++
			}
			for op := 0; op < ops; op++ {
				cmd := []string{"CLUSTER", "JOIN", id, h.addr(id)}
				if op%2 == 1 {
					cmd = []string{"CLUSTER", "LEAVE", id}
				}
				coord := coords[(ci+op)%len(coords)]
				// A pass may fail mid-race ("-ERR sync: …") with the change
				// standing; only the last operation is retried until +OK.
				for attempt := 0; ; attempt++ {
					reply, err := h.do(coord, cmd...)
					if err == nil || op < ops-1 {
						break
					}
					if !strings.HasPrefix(err.Error(), "sync: ") || attempt == 50 {
						t.Errorf("%v via %s: %q, %v", cmd, coord, reply, err)
						break
					}
				}
			}
		}(ci, id)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				k := (w*120 + i) % keys
				el := fmt.Sprintf("el-%d-%d", w, i)
				node := h.node(coords[(w+i)%len(coords)])
				var err error
				for attempt := 0; attempt < 200; attempt++ {
					if _, err = node.Add(keyName(k), el); err == nil {
						break
					}
					time.Sleep(2 * time.Millisecond)
				}
				if err != nil {
					t.Errorf("write %s→%s never succeeded: %v", el, keyName(k), err)
					continue
				}
				refMu.Lock()
				ref[k].AddString(el)
				exact[k][el] = true
				refMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	h.fab.delay("SETMAP", 0)

	enc := h.converge(30 * time.Second)
	t.Logf("converged on %s", enc)
	for _, n := range h.running() {
		for id, in := range lastIn {
			if n.Map().Has(id) != in {
				t.Errorf("%s: %s in = %v, want %v, as its last operation left it", n.ID(), id, !in, in)
			}
		}
	}

	allKeys := make([]string, keys)
	totalExact := 0
	for k := 0; k < keys; k++ {
		allKeys[k] = keyName(k)
		totalExact += len(exact[k])
	}
	for k := 0; k < keys; k++ {
		want := ref[k].Estimate()
		for _, n := range h.running() {
			got, err := n.Count(keyName(k))
			if err != nil {
				t.Fatalf("%s: count %s: %v", n.ID(), keyName(k), err)
			}
			if got != want {
				t.Errorf("%s: count %s = %v, want %v (exact %d) — writes lost or duplicated in churn",
					n.ID(), keyName(k), got, want, len(exact[k]))
			}
		}
	}
	union, err := h.node("n1").Count(allKeys...)
	if err != nil {
		t.Fatal(err)
	}
	if union < 0.9*float64(totalExact) {
		t.Errorf("union count %v underestimates the exact %d distinct writes", union, totalExact)
	}
}

// TestCrashRestartSelfHeals: a node is killed mid-rebalance (a join is
// in flight and its transfer frames are delayed), restarted from its
// last snapshot with NO seed address, and must self-heal into the
// current map with every key still countable.
func TestCrashRestartSelfHeals(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("crash-restart harness skipped in -short")
	}
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})

	const keys = 40
	ref := make([]float64, keys)
	keyName := func(k int) string { return fmt.Sprintf("crash-%d", k) }
	for k := 0; k < keys; k++ {
		for e := 0; e < 5; e++ {
			if _, err := h.node("n1").Add(keyName(k), fmt.Sprintf("el-%d-%d", k, e)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Periodic snapshot point: n3 persists its sketches AND the
	// current 3-node map.
	h.save("n3")
	heightAtSave := h.node("n3").Map().Height()
	// Writes after the snapshot exist on n3 only in memory — their
	// replica on the other owner must carry them across the crash.
	for k := 0; k < keys; k++ {
		if _, err := h.node("n2").Add(keyName(k), fmt.Sprintf("late-%d", k)); err != nil {
			t.Fatal(err)
		}
		ref[k] = mustCount(t, h.node("n1"), keyName(k))
	}

	// A join starts; its rebalance traffic is slowed so n3 dies while
	// the membership change is still propagating.
	h.start("x1")
	// Slow the transfer frames so n3 dies while data is still moving.
	h.fab.delay("XFER", 5*time.Millisecond)
	joinDone := make(chan struct{})
	go func() {
		defer close(joinDone)
		// The broadcast to the crashing n3 may fail — that is the point.
		h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1"))
	}()
	time.Sleep(10 * time.Millisecond)
	h.crash("n3")
	<-joinDone
	h.fab.delay("XFER", 0)

	// The survivors carry on and converge without n3.
	h.converge(15 * time.Second)
	if got := h.node("n1").Map().Len(); got != 4 {
		t.Fatalf("survivors' map has %d members, want 4 (n1 n2 n3 x1)", got)
	}

	// Restart n3 from its snapshot: no -join flag, just the persisted
	// map. It must land on the cluster's current map.
	n3 := h.restart("n3")
	enc := h.converge(15 * time.Second)
	if n3.Map().Encode() != enc {
		t.Fatalf("restarted node map %s diverges from cluster %s", n3.Map().Encode(), enc)
	}
	if n3.Map().Height() <= heightAtSave {
		t.Errorf("restarted node stuck at snapshot height %d (cluster moved past %d)", n3.Map().Height(), heightAtSave)
	}
	if !n3.Map().Has("x1") {
		t.Error("restarted node never learned about the node that joined while it was down")
	}
	// No lost keys: every count matches its pre-crash value, from
	// every node including the restarted one.
	for k := 0; k < keys; k++ {
		for _, n := range h.running() {
			got := mustCount(t, n, keyName(k))
			if got != ref[k] {
				t.Errorf("%s: count %s = %v, want %v after crash-restart", n.ID(), keyName(k), got, ref[k])
			}
		}
	}
}

// TestPartitionedNodeMissesBroadcastThenHeals: a node cut off during a
// membership change misses the SETMAP broadcast (the majority side
// proceeds); when the partition heals, digest rounds pull it onto the
// newest map and every count survives.
func TestPartitionedNodeMissesBroadcastThenHeals(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	const keys = 20
	keyName := func(k int) string { return fmt.Sprintf("part-%d", k) }
	ref := h.load("n2", keyName, keys, 3)

	h.fab.partition("n3", true)
	h.start("x1")
	// The join lands on every node n1 reaches; the broadcast to n3
	// fails, surfacing as an error.
	h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1"))
	if got := h.node("n1").Map().Len(); got != 4 {
		t.Fatalf("majority side map has %d members, want 4", got)
	}
	if got := h.node("n3").Map().Len(); got != 3 {
		t.Fatalf("partitioned node saw the broadcast (map has %d members)", got)
	}

	h.fab.partition("n3", false)
	enc := h.converge(10 * time.Second)
	if h.node("n3").Map().Encode() != enc {
		t.Error("healed node still diverges")
	}
	for k := 0; k < keys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, keyName(k)); got != ref[k] {
				t.Errorf("%s: count %s = %v, want %v after heal", n.ID(), keyName(k), got, ref[k])
			}
		}
	}
}

// TestMembershipChangesOnBothSidesHoldAfterHeal: while n3 is cut off, x1
// joins through n1 and x2 leaves through n3. Neither coordinator can reach
// the other side, yet both changes stand: at the heal the two states join,
// so every node holds x1 in and x2 out, and every key keeps its count.
func TestMembershipChangesOnBothSidesHoldAfterHeal(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	if err := h.start("x2").Join(h.addr("n1")); err != nil {
		t.Fatal(err)
	}
	h.start("x1")
	const keys = 20
	keyName := func(k int) string { return fmt.Sprintf("both-%d", k) }
	ref := h.load("n2", keyName, keys, 3)

	h.fab.partition("n3", true)
	// Operator traffic crosses the cut; the coordinators' own cannot.
	h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1"))
	h.do("n3", "CLUSTER", "LEAVE", "x2")
	h.fab.partition("n3", false)

	enc := h.converge(10 * time.Second)
	for _, n := range h.running() {
		if m := n.Map(); !m.Has("x1") || m.Has("x2") {
			t.Errorf("%s holds %s, want x1 in and x2 out", n.ID(), m.Encode())
		}
	}
	t.Logf("converged on %s", enc)
	for k := 0; k < keys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, keyName(k)); got != ref[k] {
				t.Errorf("%s: count %s = %v, want %v after heal", n.ID(), keyName(k), got, ref[k])
			}
		}
	}
}

// TestRestartOnNewAddressReannounces: a node that comes back on a
// different port announces the new address through its one peer, which
// re-addresses it (its counter moves up by 2) and tells it so — in a
// 2-node cluster, whose other recorded address is dead.
func TestRestartOnNewAddressReannounces(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 2, replicas: 2})
	if _, err := h.node("n1").Add("k", "a", "b"); err != nil {
		t.Fatal(err)
	}
	h.save("n2")
	oldAddr := h.addr("n2")
	h.crash("n2")
	n2 := h.start("n2")
	if n2.Addr() == oldAddr {
		t.Fatal("fixture: the restart reused the old address")
	}
	if err := n2.Join(recordedPeers(n2)...); err != nil {
		t.Fatalf("rejoin on a new address: %v", err)
	}
	enc := h.converge(10 * time.Second)
	if !strings.Contains(enc, "n2="+n2.Addr()) {
		t.Errorf("converged map %s does not record n2's new address %s", enc, n2.Addr())
	}
	for _, n := range h.running() {
		if got := mustCount(t, n, "k"); int64(got+0.5) != 2 {
			t.Errorf("%s: count k = %v after re-address, want ≈2", n.ID(), got)
		}
	}
}

// TestLeaveAfterBeingRemovedStillDrains: a node that was LEAVEd by an
// operator while partitioned still holds its data and believes it is a
// member; its own Leave must drain that data to the owners rather than
// report instant success because the map no longer lists it.
func TestLeaveAfterBeingRemovedStillDrains(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	const keys = 15
	keyName := func(k int) string { return fmt.Sprintf("dr-%d", k) }
	ref := h.load("n3", keyName, keys, 4)
	h.fab.partition("n3", true)
	// The LEAVE lands on the majority; the drain notification to n3 is
	// lost in the partition, so n3 keeps its sketches and a stale map.
	h.do("n1", "CLUSTER", "LEAVE", "n3")
	if h.node("n1").Map().Has("n3") {
		t.Fatal("majority side still lists n3")
	}
	if h.node("n3").Store().Len() == 0 {
		t.Fatal("partitioned n3 drained — the partition hook is leaky")
	}
	h.fab.partition("n3", false)
	// n3's own graceful Leave makes the change the majority made — the
	// two join to one map — and must DRAIN, not declare victory because
	// the majority's map already excludes it.
	if err := h.node("n3").Leave(); err != nil {
		t.Fatalf("leave after being removed: %v", err)
	}
	if got := h.node("n3").Store().Len(); got != 0 {
		t.Errorf("left node still holds %d sketches, want 0", got)
	}
	for k := 0; k < keys; k++ {
		for _, id := range []string{"n1", "n2"} {
			if got := mustCount(t, h.node(id), keyName(k)); got != ref[k] {
				t.Errorf("%s: count %s = %v, want %v after drain", id, keyName(k), got, ref[k])
			}
		}
	}
}

// TestLastNodeLeavesTwice: the last member leaves the map, and its second
// Leave finds no member and no leaver left to tell. It succeeds, as the
// first did, instead of failing on the empty map.
func TestLastNodeLeavesTwice(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 1, replicas: 1})
	for i := 1; i <= 2; i++ {
		if err := h.node("n1").Leave(); err != nil {
			t.Fatalf("leave %d: %v", i, err)
		}
	}
	if m := h.node("n1").Map(); len(m.Members()) != 0 {
		t.Errorf("map after the last node left: %s", m.Encode())
	}
}

// TestSetmapSyncErrorAfterInstall pins SETMAP's error reply: the target
// installs a newer map before its digest round, so when a round fails it
// answers "-ERR sync: …" and yet holds the new map.
func TestSetmapSyncErrorAfterInstall(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 3})
	cur := h.node("n2").Map()
	newer := cur.withNode("n1", h.addr("n1"))
	h.fab.setIntercept(func(from, to string, _ []string) error {
		if from == "n2" && to == h.addr("n3") {
			return fmt.Errorf("fabric: n2 cut off from n3")
		}
		return nil
	})
	// server.Client strips the "-ERR " of an error reply.
	_, err := h.do("n2", setmapCommand(newer)...)
	if !server.IsReplyErr(err) || !strings.HasPrefix(err.Error(), "sync: ") {
		t.Errorf("SETMAP with n3 unreachable answered %v, want -ERR sync: …", err)
	}
	if got := h.node("n2").Map().Encode(); got != newer.Encode() {
		t.Errorf("after the failed round n2 holds %s, want the new map %s", got, newer.Encode())
	}
}

// TestMembershipReplyForms pins the two error forms of JOIN and LEAVE. A
// refused change — an invalid ID — answers a plain -ERR and changes
// nothing. A change that stands but whose pass failed — n3 is cut off, so
// the broadcast cannot reach it — answers "-ERR sync: …", as SETMAP does
// (TestSetmapSyncErrorAfterInstall), and the coordinator holds it. Once
// every member is reachable, repeating the change answers +OK with the
// map's height and digest.
func TestMembershipReplyForms(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	h.start("x1")
	before := h.node("n1").Map().Encode()
	if _, err := h.do("n1", "CLUSTER", "JOIN", "a=b", h.addr("x1")); !server.IsReplyErr(err) || err.Error() != `invalid node ID "a=b"` {
		t.Errorf("JOIN of an invalid ID answered %v", err)
	}
	if got := h.node("n1").Map().Encode(); got != before {
		t.Errorf("a refused JOIN changed the map: %s → %s", before, got)
	}

	h.fab.partition("n3", true)
	for _, tc := range []struct {
		cmd    []string
		wantIn bool
	}{
		{[]string{"CLUSTER", "JOIN", "x1", h.addr("x1")}, true},
		{[]string{"CLUSTER", "LEAVE", "x1"}, false},
	} {
		_, err := h.do("n1", tc.cmd...)
		if !server.IsReplyErr(err) || !strings.HasPrefix(err.Error(), "sync: ") {
			t.Errorf("%v with n3 cut off answered %v, want -ERR sync: …", tc.cmd, err)
		}
		if got := h.node("n1").Map().Has("x1"); got != tc.wantIn {
			t.Errorf("after %v n1 holds x1 in = %v, want %v: the change must stand", tc.cmd, got, tc.wantIn)
		}
	}
	h.fab.partition("n3", false)
	h.converge(10 * time.Second)
	reply, err := h.do("n1", "CLUSTER", "LEAVE", "x1")
	if want := "OK " + h.node("n1").Map().Stamp(); err != nil || reply != want {
		t.Errorf("repeated LEAVE answered %q, %v; want %q", reply, err, want)
	}
}

// TestJoinTriesSeedsInOrder: Join enters through the first seed that
// answers. A seed nothing listens on is skipped, as after a restart whose
// snapshot recorded a peer that is down, and when no seed answers Join
// fails and the node stays alone. A seed that refuses the JOIN ends the
// call at once: no later seed is asked.
func TestJoinTriesSeedsInOrder(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 2, replicas: 2})
	h.start("gone")
	h.crash("gone")
	dead := h.addr("gone")

	x1 := h.start("x1")
	if err := x1.Join(dead, h.addr("n1")); err != nil {
		t.Fatalf("Join past an unreachable seed: %v", err)
	}
	if got := h.node("n2").Map().Addr("x1"); got != x1.Addr() {
		t.Errorf("n2 holds x1 at %q, want %q", got, x1.Addr())
	}

	x2 := h.start("x2")
	if err := x2.Join(dead); err == nil || errors.Is(err, ErrSync) {
		t.Errorf("Join through no live seed = %v, want a plain error", err)
	}
	if got := x2.Map().Len(); got != 1 {
		t.Errorf("x2 holds a map of %d members after no seed answered, want 1", got)
	}

	store, err := server.NewStore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	refuser := server.NewServer(store)
	refuser.Handle("CLUSTER JOIN", 2, 2, "", func(reply []byte, _ [][]byte) []byte {
		return append(reply, "-ERR refused here"...)
	})
	h.serve(refuser)
	if err := x2.Join(refuser.Addr(), h.addr("n1")); err == nil || errors.Is(err, ErrSync) || !strings.Contains(err.Error(), "refused here") {
		t.Errorf("Join through a refusing seed = %v, want its refusal", err)
	}
	if h.node("n1").Map().Has("x2") {
		t.Error("a refused JOIN went on to the next seed")
	}
}

// TestJoinWhosePassFailsStands: x1 joins through n1 while n3 is cut off,
// so n1's broadcast cannot reach n3 and n1 answers "-ERR sync: …". The join
// stands: Join's error is ErrSync, x1 holds n1's map and serves the keys
// n3 does not own, and after the heal every count through every node
// equals its reference.
func TestJoinWhosePassFailsStands(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	const keys = 20
	keyName := func(k int) string { return fmt.Sprintf("js-%d", k) }
	ref := h.load("n2", keyName, keys, 3)

	h.fab.partition("n3", true)
	x1 := h.start("x1")
	if err := x1.Join(h.addr("n1")); !errors.Is(err, ErrSync) {
		t.Fatalf("Join with n3 cut off = %v, want ErrSync", err)
	}
	if got, want := x1.Map().Encode(), h.node("n1").Map().Encode(); got != want || !x1.Map().Has("x1") {
		t.Fatalf("x1 holds %s, want the seed's map %s with x1 in", got, want)
	}
	served := 0
	for k := 0; k < keys; k++ {
		if slices.ContainsFunc(x1.Map().Owners(keyName(k)), func(o Member) bool { return o.ID == "n3" }) {
			continue
		}
		if got := mustCount(t, x1, keyName(k)); got != ref[k] {
			t.Errorf("x1: count %s = %v, want %v with n3 cut off", keyName(k), got, ref[k])
		}
		served++
	}
	if served == 0 {
		t.Fatal("fixture: n3 owns every key")
	}

	h.fab.partition("n3", false)
	h.converge(10 * time.Second)
	for k := 0; k < keys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, keyName(k)); got != ref[k] {
				t.Errorf("%s: count %s = %v, want %v after heal", n.ID(), keyName(k), got, ref[k])
			}
		}
	}
}

// TestStaleSetmapIgnored: SETMAP joins the map it carries into the node's
// — a delayed older map arriving after a newer one is a no-op, and concurrent
// changes end in the same map whichever order they arrive in, so
// out-of-order delivery can neither roll membership back nor split it.
func TestStaleSetmapIgnored(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 2, replicas: 1})
	cur := h.node("n2").Map()

	older := cur.withNode("ghost", "127.0.0.1:1")
	newer := older.withoutNode("ghost")
	setmap := func(id string, m *Map) {
		t.Helper()
		if _, err := h.do(id, setmapCommand(m)...); err != nil {
			t.Fatal(err)
		}
	}
	setmap("n2", newer) // the later change arrives first...
	setmap("n2", older) // ...then the delayed older one
	if got := h.node("n2").Map().Encode(); got != newer.Encode() {
		t.Fatalf("older SETMAP rolled the map back: %s, want %s", got, newer.Encode())
	}

	// Concurrent changes: one order on n2, the other on n1, and a
	// re-delivery. Both end on the join, holding both changes.
	rivalA := newer.withNode("a", "127.0.0.1:1")
	rivalB := newer.withNode("b", "127.0.0.1:1")
	setmap("n2", rivalA)
	setmap("n2", rivalB)
	setmap("n2", rivalA)
	setmap("n1", rivalB)
	setmap("n1", rivalA)
	want := rivalA.join(rivalB)
	for _, id := range []string{"n1", "n2"} {
		if got := h.node(id).Map().Encode(); got != want.Encode() {
			t.Errorf("%s holds %s, want the join %s", id, got, want.Encode())
		}
	}
}

// TestDeltaRebalanceMessageCount: a join must cost pushes proportional
// to the keys whose owner set changed, never an O(keys×replicas) full
// re-push: the digest rounds it runs ship only keys that differ.
func TestDeltaRebalanceMessageCount(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("1k-key rebalance accounting skipped in -short")
	}
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	nodes := h.running()
	const total = 1000
	keyName := func(k int) string { return fmt.Sprintf("delta-%d", k) }
	for k := 0; k < total; k++ {
		if _, err := nodes[0].Add(keyName(k), "x"); err != nil {
			t.Fatal(err)
		}
	}
	oldMap := nodes[0].Map()
	var before uint64
	for _, n := range nodes {
		before += n.RebalancePushes()
	}
	xferBefore := sumTransferStats(nodes)

	joiner := h.start("n4")
	if err := joiner.Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	newMap := nodes[0].Map()

	moved := 0
	for k := 0; k < total; k++ {
		oldIDs := slices.Clone(ownerIDs(oldMap, keyName(k)))
		newIDs := slices.Clone(ownerIDs(newMap, keyName(k)))
		slices.Sort(oldIDs)
		slices.Sort(newIDs)
		if !slices.Equal(oldIDs, newIDs) {
			moved++
		}
	}
	var after uint64
	for _, n := range append(slices.Clone(nodes), joiner) {
		after += n.RebalancePushes()
	}
	pushes := int(after - before)

	if moved == 0 || moved == total {
		t.Fatalf("owner-set diff degenerate: %d of %d keys moved", moved, total)
	}
	t.Logf("join moved %d/%d keys at a cost of %d pushes", moved, total, pushes)
	// Each moved key is drained by the owner that lost it to each of its
	// replicas new owners; the rounds after find them in step. Allow
	// headroom, but stay far under re-pushing every key to every owner.
	if pushes > 3*moved {
		t.Errorf("join cost %d pushes for %d moved keys — rebalance is not delta-proportional", pushes, moved)
	}
	if pushes >= total*2 {
		t.Errorf("join re-pushed the whole store (%d pushes for %d keys)", pushes, total)
	}
	// The framed path: those pushes must have traveled as O(keys/batch)
	// frames, not one message per (key, owner) pair, with nothing
	// degrading to the per-key fallback on a healthy cluster.
	xferAfter := sumTransferStats(append(slices.Clone(nodes), joiner))
	frames := int(xferAfter.FramesSent - xferBefore.FramesSent)
	fallbacks := int(xferAfter.FallbackKeys - xferBefore.FallbackKeys)
	t.Logf("the %d pushes traveled as %d frames (%d fallback keys)", pushes, frames, fallbacks)
	if frames == 0 {
		t.Error("join rebalance sent no transfer frames — the streaming path is not in use")
	}
	if frames*8 > pushes {
		t.Errorf("join cost %d frames for %d pushes — frames are not batching O(keys/batch)", frames, pushes)
	}
	if fallbacks != 0 {
		t.Errorf("%d keys degraded to a per-key path on a healthy cluster", fallbacks)
	}
	// The delta still replicated everything: spot-check counts.
	for k := 0; k < total; k += 101 {
		if got := mustCount(t, joiner, keyName(k)); int64(got+0.5) != 1 {
			t.Errorf("count %s = %v after delta rebalance, want ≈1", keyName(k), got)
		}
	}
}

// TestGossipAutoEvictsCrashedNode: a crashed node is suspected after
// suspectAfter silent gossip rounds and auto-evicted once a quorum of
// members agrees — a LEAVE no operator had to issue —
// and the survivors' maps converge with every count intact. Entirely
// fake-clock driven: the failure timeline is measured in rounds, not
// seconds.
func TestGossipAutoEvictsCrashedNode(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	const keys = 20
	keyName := func(k int) string { return fmt.Sprintf("ev-%d", k) }
	ref := h.load("n1", keyName, keys, 4)

	h.tick(2) // healthy baseline: detector states exist, heartbeats flow
	h.crash("n3")

	// Inside the suspicion window nothing may happen: a detector that
	// evicts early would tear down nodes on any hiccup.
	if evs := h.tick(testSuspectAfter - 1); len(evs) != 0 {
		t.Fatalf("evicted %v before the suspicion window elapsed", evs)
	}
	for _, n := range h.running() {
		if !n.Map().Has("n3") {
			t.Fatalf("%s dropped n3 before the suspicion window elapsed", n.ID())
		}
	}

	// Past the window: suspicion forms, the bits cross via push-pull,
	// quorum (2 of 3) agrees, and some survivor coordinates the LEAVE.
	evs := h.tick(testSuspectAfter + 3)
	if evs["n3"] == "" {
		t.Fatal("crashed node was never auto-evicted")
	}
	enc := h.converge(10 * time.Second)
	if h.node("n1").Map().Has("n3") {
		t.Fatalf("converged map %s still lists the crashed node", enc)
	}
	for k := 0; k < keys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, keyName(k)); got != ref[k] {
				t.Errorf("%s: count %s = %v, want %v after auto-evict", n.ID(), keyName(k), got, ref[k])
			}
		}
	}
}

// TestGossipCountsAnEvictionWhosePassFails: n3 crashes, and while it is
// evicted n2 hears nothing but gossip, so the evictor's pass cannot finish.
// The LEAVE stands all the same: Gossip returns n3 and the evictor counts
// it in AutoLeaves, and after the heal the survivors converge without n3
// and with every count intact.
func TestGossipCountsAnEvictionWhosePassFails(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	const keys = 20
	keyName := func(k int) string { return fmt.Sprintf("ef-%d", k) }
	ref := h.load("n1", keyName, keys, 4)

	h.tick(2)
	h.crash("n3")
	n2 := h.addr("n2")
	h.fab.setIntercept(func(from, to string, parts []string) error {
		if (from == "n2" || to == n2) && (len(parts) < 2 || !strings.EqualFold(parts[1], "GOSSIP")) {
			return errors.New("fabric: n2 hears only gossip")
		}
		return nil
	})
	evictor := h.tick(testSuspectAfter + 3)["n3"]
	if evictor == "" {
		t.Fatal("Gossip did not return the eviction whose pass failed")
	}
	if got := h.node(evictor).StatsCounters().AutoLeaves; got != 1 {
		t.Errorf("%s counts %d auto-leaves, want 1", evictor, got)
	}
	h.fab.setIntercept(nil)

	enc := h.converge(10 * time.Second)
	if h.node("n1").Map().Has("n3") {
		t.Fatalf("converged map %s still lists the crashed node", enc)
	}
	for k := 0; k < keys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, keyName(k)); got != ref[k] {
				t.Errorf("%s: count %s = %v, want %v after the eviction", n.ID(), keyName(k), got, ref[k])
			}
		}
	}
}

// TestGossipMinorityCannotEvict: a node partitioned onto the minority
// side suspects everyone else but can never reach suspicion quorum
// (it cannot hear the other suspecters), so it never attempts an
// eviction. The majority side meanwhile evicts the partitioned node; when the
// partition heals, the false-positive victim adopts the majority map,
// drains its keys to the current owners, and no data is lost.
func TestGossipMinorityCannotEvict(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	const keys = 15
	keyName := func(k int) string { return fmt.Sprintf("mi-%d", k) }
	ref := h.load("n3", keyName, keys, 3)

	h.tick(2)
	h.fab.partition("n3", true)
	beforeEnc := h.node("n3").Map().Encode()
	evs := h.tick(testSuspectAfter + 5)

	// The minority node: full of suspicion, empty of authority.
	for id, by := range evs {
		if by == "n3" {
			t.Fatalf("minority node evicted %s", id)
		}
	}
	if got := h.node("n3").Map().Encode(); got != beforeEnc {
		t.Fatalf("minority node mutated membership while partitioned: %s → %s", beforeEnc, got)
	}
	_, health := h.node("n3").Health()
	for _, mh := range health {
		if !mh.Self && !mh.Suspect {
			t.Errorf("partitioned n3 does not suspect silent peer %s", mh.ID)
		}
	}

	// The majority side evicted the silent n3.
	if evs["n3"] == "" {
		t.Fatal("majority side never evicted the partitioned node")
	}
	for _, id := range []string{"n1", "n2"} {
		if h.node(id).Map().Has("n3") {
			t.Fatalf("%s still lists the evicted node", id)
		}
	}

	// Heal: n3's next gossip exchange shows it another map digest, and it
	// pulls and joins the n3-less map (or is handed it by a targeted
	// SETMAP); joining it drains n3's sketches to the owners.
	h.fab.partition("n3", false)
	h.tick(3)
	if h.node("n3").Map().Has("n3") {
		t.Error("healed false-positive victim still believes it is a member")
	}
	if got := h.node("n3").Store().Len(); got != 0 {
		t.Errorf("healed victim still holds %d sketches, want 0 (drained)", got)
	}
	for k := 0; k < keys; k++ {
		for _, id := range []string{"n1", "n2"} {
			if got := mustCount(t, h.node(id), keyName(k)); got != ref[k] {
				t.Errorf("%s: count %s = %v, want %v after heal", id, keyName(k), got, ref[k])
			}
		}
	}
}

// TestGossipEvictedNodeRejoinsCleanly: a node crashes, is auto-evicted,
// then restarts from its snapshot and re-enters by Join through the peers
// its snapshot recorded, as elld does, and gets its keys back via the ordinary delta rebalance,
// converging byte-identically with the survivors.
func TestGossipEvictedNodeRejoinsCleanly(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	const keys = 25
	keyName := func(k int) string { return fmt.Sprintf("rj-%d", k) }
	ref := h.load("n2", keyName, keys, 4)

	h.tick(2)
	h.save("n3") // last periodic snapshot before the crash
	h.crash("n3")
	evs := h.tick(testSuspectAfter + 4)
	evictor := evs["n3"]
	if evictor == "" {
		t.Fatal("crashed node was never auto-evicted")
	}
	h.converge(10 * time.Second)

	// Restart from the snapshot: its map still lists the survivors, and
	// Join enters through the first of them that answers.
	n3 := h.startAt("n3", h.addr("n3"))
	if err := n3.Join(recordedPeers(n3)...); err != nil {
		t.Fatalf("rejoin after eviction: %v", err)
	}
	if m := n3.Map(); !m.Has("n3") || m.Len() != 3 {
		t.Fatalf("after Join n3 holds map %s, want all three members", m.Encode())
	}

	enc := h.converge(10 * time.Second)
	if n3.Map().Encode() != enc {
		t.Fatalf("rejoined node map %s diverges from cluster %s", n3.Map().Encode(), enc)
	}
	if n3.Store().Len() == 0 {
		t.Error("rejoined node received no data back from rebalance")
	}
	for k := 0; k < keys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, keyName(k)); got != ref[k] {
				t.Errorf("%s: count %s = %v, want %v after rejoin", n.ID(), keyName(k), got, ref[k])
			}
		}
	}
	// A second JOIN of a node already on the map is idempotent.
	if reply, err := h.do(evictor, "CLUSTER", "JOIN", "n3", n3.Addr()); err != nil {
		t.Fatal(err)
	} else if !strings.HasPrefix(reply, "OK") {
		t.Errorf("idempotent re-join reply %q, want OK", reply)
	}
}

// TestGossipStaleSuspectorDoesNotCountTowardQuorum: suspicion asserted
// by a node that has since left the map is stale hearsay — the quorum
// check must count only CURRENT members, or a single live suspecter
// plus a ghost could evict a node no live majority suspects.
func TestGossipStaleSuspectorDoesNotCountTowardQuorum(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	h.tick(2) // settle heartbeats so the injected state cannot be refuted by an hb advance
	h.fab.partition("n3", true)

	// White-box injection: n1 suspects n3, and so does "ghost" — a
	// suspector that is not (any longer) a member. Two bits, but only
	// one from a live member: under quorum 2 this must not evict.
	n1 := h.node("n1")
	n1.gsp.mu.Lock()
	n1.gsp.peers["n3"].suspectedBy = map[string]bool{"n1": true, "ghost": true}
	n1.gsp.mu.Unlock()

	if evs := n1.Gossip(); len(evs) != 0 {
		t.Fatalf("ghost suspicion completed an eviction quorum: evicted %v", evs)
	}
	if !n1.Map().Has("n3") {
		t.Fatal("n3 was evicted on one live member's suspicion plus a ghost's")
	}
}

// TestGossipTransientPartitionDoesNotEvict: a partition shorter than
// the suspicion window must leave no trace — no eviction, no lingering
// suspicion once fresh heartbeats flow again. Pins the detector's
// tolerance as rounds, on the fake clock.
func TestGossipTransientPartitionDoesNotEvict(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	h.tick(2)
	h.fab.partition("n3", true)
	if evs := h.tick(testSuspectAfter - 1); len(evs) != 0 {
		t.Fatalf("transient partition evicted %v", evs)
	}
	h.fab.partition("n3", false)
	if evs := h.tick(testSuspectAfter + 3); len(evs) != 0 {
		t.Fatalf("healed partition still evicted %v", evs)
	}
	for _, n := range h.running() {
		if n.Map().Len() != 3 {
			t.Fatalf("%s map shrank to %d members after a transient partition", n.ID(), n.Map().Len())
		}
		_, health := n.Health()
		for _, mh := range health {
			if mh.Suspect {
				t.Errorf("%s still suspects %s after heal", n.ID(), mh.ID)
			}
		}
	}
	// The wire view agrees: CLUSTER HEALTH reports every member alive.
	reply, err := h.do("n1", "CLUSTER", "HEALTH")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(reply, "suspect") || !strings.Contains(reply, "member=true") {
		t.Errorf("CLUSTER HEALTH %q reports suspicion after heal", reply)
	}
}

// TestConcurrentJoinAndLeaveOfOneID pins the membership contract for one
// ID changed on both sides of a partition: each side moves the ID's
// counter from the value it holds, and at the heal the higher counter
// wins. A LEAVE of an ID its coordinator holds out is a no-op, so it
// cannot undo a JOIN it has not seen; a re-address (two up) outranks a
// LEAVE (one up) made from the same counter. Both operations answer +OK.
func TestConcurrentJoinAndLeaveOfOneID(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name      string
		joined    bool // x1 is in before the partition
		readdress bool // and then restarts on another address
		wantIn    bool
	}{
		{"join beats an unseen leave", false, false, true},
		{"re-address beats a leave", true, true, true},
		{"same-address join is a no-op beside a leave", true, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
			x1 := h.start("x1")
			if tc.joined {
				if err := x1.Join(h.addr("n1")); err != nil {
					t.Fatal(err)
				}
			}
			if tc.readdress {
				h.crash("x1")
				h.start("x1")
			}
			addr := h.addr("x1")
			h.fab.partition("n3", true)
			h.do("n1", "CLUSTER", "JOIN", "x1", addr)
			h.do("n3", "CLUSTER", "LEAVE", "x1")
			h.fab.partition("n3", false)
			h.converge(10 * time.Second)
			for _, n := range h.running() {
				m := n.Map()
				if m.Has("x1") != tc.wantIn || tc.wantIn && m.Addr("x1") != addr {
					t.Errorf("%s holds %s, want x1 in = %v at %s", n.ID(), m.Encode(), tc.wantIn, addr)
				}
			}
		})
	}
}

// TestClaimPullsNewerVoterMap: n2 holds a change (n3 out) that no other
// node has seen when n1 coordinates a JOIN. Once n1 broadcasts, the digest
// rounds of the pass find the map digests differ, pull the other side's
// map, join it and push the join back, so when the JOIN returns both n1
// and n2 hold both changes: a JOIN never overwrites a change it did not
// see. (Which node pulls first depends on timing, so the test pins the
// outcome, not the messages.)
func TestClaimPullsNewerVoterMap(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	n1, n2 := h.node("n1"), h.node("n2")
	if !n2.swapMap(n2.Map().withoutNode("n3")) {
		t.Fatal("fixture: n2's map did not install")
	}
	h.start("x1")
	if reply, err := h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1")); err != nil || !strings.HasPrefix(reply, "OK") {
		t.Fatalf("join via n1: %q, %v", reply, err)
	}
	for _, n := range []*Node{n1, n2} {
		if m := n.Map(); !m.Has("x1") || m.Has("n3") {
			t.Errorf("%s holds %s, want x1 in and n3 out", n.ID(), m.Encode())
		}
	}
	enc := h.converge(10 * time.Second)
	if m := h.node("x1").Map(); !m.Has("x1") || m.Has("n3") {
		t.Errorf("converged on %s, want x1 in and n3 out", enc)
	}
}

// TestTTLChaosDeterministicExpiry: keys with a replicated absolute
// deadline expire at the same instant on every replica — across a join
// rebalance (deadlines ride transfer frames) and a crash-restart from
// snapshot (deadlines ride snapshot records) — with no premature loss
// before the deadline and no ghost resurrection after it, while
// deadline-free keys are untouched. Entirely fake-clock driven.
func TestTTLChaosDeterministicExpiry(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("TTL chaos harness skipped in -short")
	}
	const base = int64(1_700_000_000_000)
	// Every store judges expiry against this counter, in Unix milliseconds:
	// the deadline passing is an explicit, deterministic event.
	var clock atomic.Int64
	clock.Store(base)
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2, clock: func() time.Time { return time.UnixMilli(clock.Load()) }})

	const (
		ttlKeys   = 16
		plainKeys = 6
		els       = 3
	)
	ttlName := func(k int) string { return fmt.Sprintf("ttl-%d", k) }
	plainName := func(k int) string { return fmt.Sprintf("keep-%d", k) }
	for k := 0; k < ttlKeys; k++ {
		for e := 0; e < els; e++ {
			if _, err := h.node("n1").Add(ttlName(k), fmt.Sprintf("el-%d-%d", k, e)); err != nil {
				t.Fatal(err)
			}
		}
	}
	plainRef := make([]float64, plainKeys)
	for k := 0; k < plainKeys; k++ {
		for e := 0; e < els; e++ {
			if _, err := h.node("n1").Add(plainName(k), fmt.Sprintf("pl-%d-%d", k, e)); err != nil {
				t.Fatal(err)
			}
		}
		plainRef[k] = mustCount(t, h.node("n1"), plainName(k))
	}

	// Arm one cluster-wide absolute deadline on every TTL key. The
	// coordinator forwards the instant, not the duration.
	deadline := base + (time.Minute).Milliseconds()
	ttlRef := make([]float64, ttlKeys)
	for k := 0; k < ttlKeys; k++ {
		existed, err := h.node("n1").ExpireAt(ttlName(k), deadline)
		if err != nil || !existed {
			t.Fatalf("ExpireAt %s: existed=%v err=%v", ttlName(k), existed, err)
		}
		ttlRef[k] = mustCount(t, h.node("n1"), ttlName(k))
	}
	// Every owner replica holds the byte-identical deadline and blob.
	assertOwnersArmed := func(when string) {
		t.Helper()
		m := h.node("n1").Map()
		for k := 0; k < ttlKeys; k++ {
			var refBlob []byte
			for _, id := range ownerIDs(m, ttlName(k)) {
				n := h.node(id)
				if n == nil {
					continue
				}
				dl, ok := n.Store().DeadlineOf(ttlName(k))
				if !ok || dl != deadline {
					t.Fatalf("%s: %s deadline on %s = (%d,%v), want %d", when, ttlName(k), id, dl, ok, deadline)
				}
				blob, ok := n.Store().Dump(ttlName(k))
				if !ok {
					t.Fatalf("%s: owner %s lost %s before the deadline", when, id, ttlName(k))
				}
				if refBlob == nil {
					refBlob = blob
				} else if string(blob) != string(refBlob) {
					t.Errorf("%s: %s replicas diverge on %s", when, ttlName(k), id)
				}
			}
		}
	}
	assertOwnersArmed("after EXPIREAT")

	// A join moves keys: deadlines must ride the transfer frames.
	h.start("x1")
	if _, err := h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1")); err != nil {
		t.Fatal(err)
	}
	h.converge(10 * time.Second)
	moved := 0
	for k := 0; k < ttlKeys; k++ {
		if slices.Contains(ownerIDs(h.node("n1").Map(), ttlName(k)), "x1") {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("join moved no TTL keys onto x1 — the frame-deadline path is untested")
	}
	t.Logf("join moved %d/%d TTL keys onto x1", moved, ttlKeys)
	assertOwnersArmed("after join")

	// Crash-restart n2 from its snapshot: deadlines ride the records.
	h.save("n2")
	h.crash("n2")
	h.restart("n2")
	h.converge(10 * time.Second)
	assertOwnersArmed("after crash-restart")

	// Still before the deadline: nothing may be lost prematurely.
	for k := 0; k < ttlKeys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, ttlName(k)); got != ttlRef[k] {
				t.Errorf("%s: pre-deadline count %s = %v, want %v", n.ID(), ttlName(k), got, ttlRef[k])
			}
		}
	}

	// The deadline passes — everywhere at once, by construction.
	clock.Add((time.Minute + time.Second).Milliseconds())
	for k := 0; k < ttlKeys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, ttlName(k)); got != 0 {
				t.Errorf("%s: expired key %s still counts %v", n.ID(), ttlName(k), got)
			}
		}
	}
	for k := 0; k < plainKeys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, plainName(k)); got != plainRef[k] {
				t.Errorf("%s: deadline-free key %s = %v, want %v after expiry", n.ID(), plainName(k), got, plainRef[k])
			}
		}
	}

	// Anti-entropy must not resurrect ghosts: a digest round digests an
	// expired key as absent and never ships it.
	for _, n := range h.running() {
		if err := n.DigestSync(); err != nil {
			t.Fatalf("%s: digest round: %v", n.ID(), err)
		}
	}
	h.tick(2)
	for k := 0; k < ttlKeys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, ttlName(k)); got != 0 {
				t.Errorf("%s: digest round resurrected expired key %s (count %v)", n.ID(), ttlName(k), got)
			}
			if _, ok := n.Store().Dump(ttlName(k)); ok {
				t.Errorf("%s: store still dumps expired key %s", n.ID(), ttlName(k))
			}
		}
	}

	// A restart from the PRE-expiry snapshot after the deadline: the
	// loader must skip the expired-on-disk records, and the rebalance
	// that follows must not push them back.
	h.crash("n2")
	n2 := h.restart("n2")
	h.converge(10 * time.Second)
	for k := 0; k < ttlKeys; k++ {
		if _, ok := n2.Store().Dump(ttlName(k)); ok {
			t.Errorf("restart loaded expired key %s from the snapshot", ttlName(k))
		}
		if got := mustCount(t, n2, ttlName(k)); got != 0 {
			t.Errorf("post-restart count %s = %v, want 0", ttlName(k), got)
		}
	}
	for k := 0; k < plainKeys; k++ {
		if got := mustCount(t, n2, plainName(k)); got != plainRef[k] {
			t.Errorf("post-restart deadline-free key %s = %v, want %v", plainName(k), got, plainRef[k])
		}
	}
}

// TestGossipTripleHealsMissedBroadcast: a node that missed a SETMAP
// broadcast heals through the map stamps that ordinary gossip digests
// carry, where they once carried the map's ordering triple. An
// exchange whose reply shows another map digest costs the pusher one
// CLUSTER MAP pull and, when the peer lacks part of the join, one targeted
// SETMAP; once n3 is healed no exchange finds a mismatch. (A laggard that
// pushes first pulls and needs no SETMAP:
// TestGossipPusherBehindHugeMapPullsOnce.) The test counts every message
// on the wire during the heal.
func TestGossipTripleHealsMissedBroadcast(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	h.tick(2) // healthy baseline

	// n3 misses a join while partitioned.
	h.fab.partition("n3", true)
	h.start("x1")
	h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1")) // broadcast to n3 fails: that is the point
	if !h.node("n1").Map().Has("x1") {
		t.Fatal("join did not land on the majority")
	}
	if h.node("n3").Map().Has("x1") {
		t.Fatal("partitioned n3 saw the broadcast — the partition hook is leaky")
	}

	// Heal, then count every message while ONLY gossip rounds run — no
	// converge, no digest round.
	h.fab.partition("n3", false)
	var msgMu sync.Mutex
	var mapPulls, setmaps, gossips int
	var setmapBytes, gossipBytes int
	h.fab.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) < 2 || !strings.EqualFold(parts[0], "CLUSTER") {
			return nil
		}
		size := 0
		for _, p := range parts {
			size += len(p) + 1
		}
		msgMu.Lock()
		defer msgMu.Unlock()
		switch strings.ToUpper(parts[1]) {
		case "MAP":
			mapPulls++
		case "SETMAP":
			setmaps++
			setmapBytes += size
		case "GOSSIP":
			gossips++
			gossipBytes += size
		}
		return nil
	})
	h.tick(4)
	h.fab.setIntercept(nil)

	enc := h.node("n1").Map().Encode()
	if got := h.node("n3").Map().Encode(); got != enc {
		t.Fatalf("gossip alone did not heal the stale map: n3 holds %s, cluster %s", got, enc)
	}
	if !h.node("n3").Map().Has("x1") {
		t.Fatal("healed n3 still does not list the joined node")
	}
	msgMu.Lock()
	defer msgMu.Unlock()
	t.Logf("heal cost: %d gossip msgs (%d B), %d targeted SETMAPs (%d B), %d MAP pulls",
		gossips, gossipBytes, setmaps, setmapBytes, mapPulls)
	if mapPulls != 1 {
		t.Errorf("heal cost %d CLUSTER MAP pulls, want the one of the first exchange that touched n3", mapPulls)
	}
	if gossips == 0 {
		t.Error("no gossip traffic observed during the heal rounds")
	}
	// The laggard is healed by the first digests it touches; the SETMAP
	// stays targeted (no O(members) spray, no repeat after the heal).
	if setmaps > 1 {
		t.Errorf("heal sent %d SETMAPs, want at most the one back to n3", setmaps)
	}
}

// TestGossipPusherBehindHugeMapPullsOnce: a laggard whose own push
// shows it another map digest pulls the map — from the one peer whose
// reply showed it, once, not from every member — and, holding nothing the
// peer lacks, pushes nothing back, however large the map is: this one
// would not fit a gossip reply beside the digest, and no map rides one.
func TestGossipPusherBehindHugeMapPullsOnce(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 2, replicas: 1})
	n1, n2 := h.node("n1"), h.node("n2")
	// 2000 members with 60-byte ids at a dead address: the map and n1's
	// digest each fit maxWireBytes, together they do not. The fake ids
	// sort first, so n1's own gossip round below targets two of them
	// (refused dials) and never reaches n2.
	cur := n1.Map()
	tokens := strings.Fields(cur.withNode("n1", cur.Addr("n1")).Encode())
	for i := 0; i < 2000; i++ {
		tokens = append(tokens, fmt.Sprintf("a%059d=127.0.0.1:1=1", i))
	}
	big, err := DecodeMap(tokens)
	if err != nil {
		t.Fatalf("fixture map: %v", err)
	}
	// Installed without the digest round an install runs: its refused DSUM
	// would hand n2 the map before the exchange under test.
	if !n1.swapMap(big) {
		t.Fatal("fixture: the big map did not change n1's")
	}
	n1.Gossip() // gives n1 a detector entry, hence a digest row, per member
	if n2.Map().Encode() == big.Encode() {
		t.Fatal("fixture: n2 learned the map before the exchange under test")
	}

	count := countClusterVerbs(h)
	n2.Gossip()
	if got := n2.Map().Encode(); got != big.Encode() {
		t.Fatalf("n2 did not adopt the oversized map: holds %d bytes, want %d", len(got), len(big.Encode()))
	}
	if pulls, pushes := count("MAP"), count("SETMAP"); pulls != 1 || pushes != 0 {
		t.Errorf("the fallback cost %d MAP pulls and %d SETMAPs, want 1 and 0", pulls, pushes)
	}
}

// sumTransferStats adds up the bulk-transfer counters across nodes.
func sumTransferStats(nodes []*Node) TransferStats {
	var sum TransferStats
	for _, n := range nodes {
		s := n.TransferStats()
		sum.StreamsOpened += s.StreamsOpened
		sum.FramesSent += s.FramesSent
		sum.FrameRetries += s.FrameRetries
		sum.BytesMoved += s.BytesMoved
		sum.FallbackKeys += s.FallbackKeys
		sum.BytesWire += s.BytesWire
	}
	return sum
}

func mustCount(t *testing.T, n *Node, keys ...string) float64 {
	t.Helper()
	got, err := n.Count(keys...)
	if err != nil {
		t.Fatalf("%s: count %v: %v", n.ID(), keys, err)
	}
	return got
}
