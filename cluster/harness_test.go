package cluster

// An in-process multi-node cluster harness with injectable fault hooks
// — partition a node, delay a verb on the wire, crash a node and
// restart it from its snapshot — so membership races that would
// otherwise only surface in production are reproducible, deterministic
// enough to assert on, and run under `go test -race`.
//
// Failure detection is tested under a FAKE CLOCK: gossip time is a
// logical round counter advanced only by harness.tick, which gives
// every running node one Gossip turn per round in sorted-ID order.
// Nothing in the detector reads a wall clock, so a chaos test that
// says "crash, then 5 rounds pass" observes exactly the same suspicion
// and eviction sequence on every run — no sleeps, no flakes.

import (
	"fmt"
	"io"
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

type harness struct {
	t        *testing.T
	replicas int
	dir      string
	xfer     *TransferConfig  // non-nil: applied to every started node
	clock    func() time.Time // non-nil: injected store clock (expiry tests)

	mu          sync.Mutex
	nodes       map[string]*Node         // running nodes by ID
	addrs       map[string]string        // id → last listen address (survives a crash)
	idByAddr    map[string]string        // reverse index for symmetric partitions
	partitioned map[string]bool          // node IDs currently cut off
	delays      map[string]time.Duration // CLUSTER subcommand → outbound delay
	gates       map[string]chan struct{} // "<id> <VERB>" → outbound blocks until closed
	intercept   func(id, addr string, parts []string) error
}

// newHarness boots n nodes (n1..nN, n1 the seed) with the given
// replica factor, each with a snapshot path and a fault hook.
func newHarness(t *testing.T, n, replicas int) *harness {
	t.Helper()
	return newHarnessCfg(t, n, replicas, nil)
}

// newHarnessCfg is newHarness with a TransferConfig applied to every
// node it starts — how the transfer chaos tests pin small frames,
// narrow windows and short timeouts without changing the defaults the
// other tests exercise.
func newHarnessCfg(t *testing.T, n, replicas int, xfer *TransferConfig) *harness {
	t.Helper()
	return newHarnessClock(t, n, replicas, xfer, nil)
}

// newHarnessClock is newHarnessCfg with an injected store clock: every
// node it starts (including crash-restarts) judges expiry deadlines
// against the given time source instead of the wall clock, so TTL chaos
// tests advance time explicitly and deterministically.
func newHarnessClock(t *testing.T, n, replicas int, xfer *TransferConfig, clock func() time.Time) *harness {
	t.Helper()
	h := &harness{
		t:           t,
		replicas:    replicas,
		dir:         t.TempDir(),
		xfer:        xfer,
		clock:       clock,
		nodes:       make(map[string]*Node),
		addrs:       make(map[string]string),
		idByAddr:    make(map[string]string),
		partitioned: make(map[string]bool),
		delays:      make(map[string]time.Duration),
		gates:       make(map[string]chan struct{}),
	}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("n%d", i)
		node := h.start(id, "127.0.0.1:0")
		if i > 1 {
			if err := node.Join(h.addr("n1")); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Cleanup(h.closeAll)
	return h
}

// hookFor builds node id's outbound fault hook: traffic is dropped
// when either endpoint is partitioned, and CLUSTER subcommands with a
// configured delay sleep before being sent.
func (h *harness) hookFor(id string) func(addr string, parts []string) error {
	return func(addr string, parts []string) error {
		h.mu.Lock()
		blocked := h.partitioned[id] || h.partitioned[h.idByAddr[addr]]
		intercept := h.intercept
		var delay time.Duration
		var gate chan struct{}
		if len(parts) >= 2 && strings.EqualFold(parts[0], "CLUSTER") {
			delay = h.delays[strings.ToUpper(parts[1])]
			gate = h.gates[id+" "+strings.ToUpper(parts[1])]
		}
		h.mu.Unlock()
		if blocked {
			return fmt.Errorf("harness: network partition between %s and %s", id, addr)
		}
		if gate != nil {
			<-gate // parked until the test releases the gate
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if intercept != nil {
			return intercept(id, addr, parts)
		}
		return nil
	}
}

// setIntercept installs a per-message interceptor consulted (after the
// partition/gate/delay faults) with every outbound command of every
// node — the surgical fault: a test can fail or park exactly the Nth
// transfer frame, something the verb-granular faults cannot express.
// nil clears it.
func (h *harness) setIntercept(f func(id, addr string, parts []string) error) {
	h.mu.Lock()
	h.intercept = f
	h.mu.Unlock()
}

// stall replaces node id with a black hole: the node is crashed and its
// address re-bound to a listener that accepts connections and reads
// forever without ever replying — the pathological peer that, before
// I/O deadlines, hung every forward and rebalance touching it. Returns
// the stalled address.
func (h *harness) stall(id string) string {
	h.t.Helper()
	h.crash(id)
	addr := h.addr(id)
	var ln net.Listener
	var err error
	// The just-closed listener's port can take a moment to rebind.
	for attempt := 0; attempt < 50; attempt++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(io.Discard, c) // consume everything, answer nothing
			}(c)
		}
	}()
	h.t.Cleanup(func() { ln.Close() })
	return addr
}

// gate parks every outbound CLUSTER <verb> from node id until the
// returned release is called — an ordering primitive: unlike delay it
// enforces a happens-before edge instead of racing a timer, which is
// what keeps interleaving tests deterministic.
func (h *harness) gate(id, verb string) (release func()) {
	ch := make(chan struct{})
	key := id + " " + strings.ToUpper(verb)
	h.mu.Lock()
	h.gates[key] = ch
	h.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.gates, key)
			h.mu.Unlock()
			close(ch)
		})
	}
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

// start boots node id, loading its snapshot when one exists. listen is
// "127.0.0.1:0" for a fresh port or a recorded address on restart.
func (h *harness) start(id, listen string) *Node {
	h.t.Helper()
	n, err := NewNode(id, testConfig(), h.replicas)
	if err != nil {
		h.t.Fatal(err)
	}
	if h.clock != nil {
		// Before LoadFile: a snapshot load judges expired-on-disk records
		// against the store clock, which must already be the fake one.
		n.Store().SetClock(h.clock)
	}
	snap := h.snapPath(id)
	if _, err := os.Stat(snap); err == nil {
		if err := n.Store().LoadFile(snap); err != nil {
			h.t.Fatal(err)
		}
	}
	n.SetSnapshotPath(snap)
	n.setFaultHook(h.hookFor(id))
	n.SetGossipConfig(GossipConfig{Fanout: 2, SuspectAfter: testSuspectAfter})
	if h.xfer != nil {
		n.SetTransferConfig(*h.xfer)
	}
	// A just-crashed listener's port can take a moment to rebind.
	startErr := n.Start(listen)
	for attempt := 0; startErr != nil && attempt < 50; attempt++ {
		time.Sleep(20 * time.Millisecond)
		startErr = n.Start(listen)
	}
	if startErr != nil {
		h.t.Fatal(startErr)
	}
	h.mu.Lock()
	h.nodes[id] = n
	h.addrs[id] = n.Addr()
	h.idByAddr[n.Addr()] = id
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
// snapshot and lets it self-heal into the cluster — no seed address.
func (h *harness) restart(id string) *Node {
	h.t.Helper()
	h.mu.Lock()
	listen := h.addrs[id]
	h.mu.Unlock()
	n := h.start(id, listen)
	if err := n.Rejoin(); err != nil {
		h.t.Fatalf("rejoin %s: %v", id, err)
	}
	return n
}

// partition cuts node id off from all peer traffic (both directions)
// or reconnects it.
func (h *harness) partition(id string, cut bool) {
	h.mu.Lock()
	h.partitioned[id] = cut
	h.mu.Unlock()
}

// delay makes every node's outbound CLUSTER <verb> messages sleep d
// before sending (0 clears it).
func (h *harness) delay(verb string, d time.Duration) {
	h.mu.Lock()
	h.delays[strings.ToUpper(verb)] = d
	h.mu.Unlock()
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
// connection (operator traffic bypasses the simulated partitions).
func (h *harness) do(id string, parts ...string) (string, error) {
	c, err := server.Dial(h.addr(id))
	if err != nil {
		return "", err
	}
	defer c.Close()
	return c.Do(parts...)
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

func (h *harness) closeAll() {
	for _, n := range h.running() {
		n.Close()
	}
}

// --- tests -------------------------------------------------------------

// TestChaosConcurrentMembership: goroutines hammer JOIN/LEAVE through
// different coordinators (with SETMAP broadcasts artificially delayed
// so they overlap) while writers keep adding elements. Afterwards
// every node must hold a byte-identical map, and — because ExaLogLog
// merging is lossless — the cluster-wide count of every key must
// exactly equal a golden reference sketch fed the same elements; in
// particular it can never underestimate the exact distinct count.
func TestChaosConcurrentMembership(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short")
	}
	h := newHarness(t, 3, 2)
	h.delay("SETMAP", 2*time.Millisecond)
	defer h.delay("SETMAP", 0)

	churners := []string{"x1", "x2"}
	for _, id := range churners {
		h.start(id, "127.0.0.1:0")
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

	var wg sync.WaitGroup
	for ci, id := range churners {
		wg.Add(1)
		go func(ci int, id string) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				// Errors are part of the chaos: epoch fencing may
				// refuse a claim mid-race; the next round retries.
				h.do(coords[(ci+round)%len(coords)], "CLUSTER", "JOIN", id, h.addr(id))
				h.do(coords[(ci+round+1)%len(coords)], "CLUSTER", "LEAVE", id)
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
	h.delay("SETMAP", 0)

	enc := h.converge(30 * time.Second)
	t.Logf("converged on %s", enc)

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
// in flight and its ABSORB pushes are delayed), restarted from its
// last snapshot with NO seed address, and must self-heal into the
// current epoch's map with every key still countable.
func TestCrashRestartSelfHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart harness skipped in -short")
	}
	h := newHarness(t, 3, 2)

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
	epochAtSave := h.node("n3").Map().Epoch
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
	h.start("x1", "127.0.0.1:0")
	// Slow the transfer frames so n3 dies while data is still moving.
	h.delay("XFER", 5*time.Millisecond)
	joinDone := make(chan struct{})
	go func() {
		defer close(joinDone)
		// The broadcast to the crashing n3 may fail — that is the point.
		h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1"))
	}()
	time.Sleep(10 * time.Millisecond)
	h.crash("n3")
	<-joinDone
	h.delay("XFER", 0)

	// The survivors carry on and converge without n3.
	h.converge(15 * time.Second)
	if got := h.node("n1").Map().Len(); got != 4 {
		t.Fatalf("survivors' map has %d members, want 4 (n1 n2 n3 x1)", got)
	}

	// Restart n3 from its snapshot: no -join flag, just the persisted
	// map. It must land on the cluster's current epoch.
	n3 := h.restart("n3")
	enc := h.converge(15 * time.Second)
	if n3.Map().Encode() != enc {
		t.Fatalf("restarted node map %s diverges from cluster %s", n3.Map().Encode(), enc)
	}
	if n3.Map().Epoch <= epochAtSave {
		t.Errorf("restarted node stuck at snapshot epoch %d (cluster moved past %d)", n3.Map().Epoch, epochAtSave)
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

// TestMinorityCoordinatorCannotMutate: with a majority of members
// unreachable, a JOIN through the minority side fails its epoch claim
// and changes nothing — the fencing that prevents split-brain
// membership. Healing the partition makes the same JOIN succeed.
func TestMinorityCoordinatorCannotMutate(t *testing.T) {
	h := newHarness(t, 3, 2)
	h.start("x1", "127.0.0.1:0")
	h.partition("n2", true)
	h.partition("n3", true)

	before := h.node("n1").Map().Encode()
	if reply, err := h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1")); err == nil {
		t.Fatalf("JOIN through a minority coordinator succeeded: %q", reply)
	}
	if got := h.node("n1").Map().Encode(); got != before {
		t.Errorf("failed claim still mutated the map: %s → %s", before, got)
	}

	h.partition("n2", false)
	h.partition("n3", false)
	if _, err := h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1")); err != nil {
		t.Fatalf("JOIN after heal: %v", err)
	}
	enc := h.converge(10 * time.Second)
	if !strings.Contains(enc, "x1=") {
		t.Errorf("converged map %s lacks the joined node", enc)
	}
}

// TestPartitionedNodeMissesBroadcastThenHeals: a node cut off during a
// membership change misses the SETMAP broadcast (the majority side
// proceeds); when the partition heals, digest rounds pull it onto the
// newest map and every count survives.
func TestPartitionedNodeMissesBroadcastThenHeals(t *testing.T) {
	h := newHarness(t, 3, 2)
	const keys = 20
	keyName := func(k int) string { return fmt.Sprintf("part-%d", k) }
	ref := make([]float64, keys)
	for k := 0; k < keys; k++ {
		for e := 0; e < 3; e++ {
			if _, err := h.node("n2").Add(keyName(k), fmt.Sprintf("el-%d-%d", k, e)); err != nil {
				t.Fatal(err)
			}
		}
		ref[k] = mustCount(t, h.node("n1"), keyName(k))
	}

	h.partition("n3", true)
	h.start("x1", "127.0.0.1:0")
	// The claim reaches quorum (n1+n2) so the join lands on the
	// majority; the broadcast to n3 fails, surfacing as an error.
	h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1"))
	if got := h.node("n1").Map().Len(); got != 4 {
		t.Fatalf("majority side map has %d members, want 4", got)
	}
	if got := h.node("n3").Map().Len(); got != 3 {
		t.Fatalf("partitioned node saw the broadcast (map has %d members)", got)
	}

	h.partition("n3", false)
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

// TestRestartOnNewAddressReannounces: a node that comes back on a
// different port must announce the new address itself — including the
// 2-node case where no peer can coordinate the join (the peer's epoch
// claim targets the dead recorded address and can never reach quorum),
// so Rejoin has to fall back to coordinating locally.
func TestRestartOnNewAddressReannounces(t *testing.T) {
	h := newHarness(t, 2, 2)
	if _, err := h.node("n1").Add("k", "a", "b"); err != nil {
		t.Fatal(err)
	}
	h.save("n2")
	oldAddr := h.addr("n2")
	h.crash("n2")
	n2 := h.start("n2", "127.0.0.1:0") // the old port is "taken"
	if n2.Addr() == oldAddr {
		t.Skip("OS handed back the same ephemeral port")
	}
	if err := n2.Rejoin(); err != nil {
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
	h := newHarness(t, 3, 2)
	const keys = 15
	keyName := func(k int) string { return fmt.Sprintf("dr-%d", k) }
	ref := make([]float64, keys)
	for k := 0; k < keys; k++ {
		for e := 0; e < 4; e++ {
			if _, err := h.node("n3").Add(keyName(k), fmt.Sprintf("el-%d-%d", k, e)); err != nil {
				t.Fatal(err)
			}
		}
		ref[k] = mustCount(t, h.node("n1"), keyName(k))
	}
	h.partition("n3", true)
	// The LEAVE lands on the majority; the drain notification to n3 is
	// lost in the partition, so n3 keeps its sketches and a stale map.
	h.do("n1", "CLUSTER", "LEAVE", "n3")
	if h.node("n1").Map().Has("n3") {
		t.Fatal("majority side still lists n3")
	}
	if h.node("n3").Store().Len() == 0 {
		t.Fatal("partitioned n3 drained — the partition hook is leaky")
	}
	h.partition("n3", false)
	// n3's own graceful Leave: its epoch claim adopts the majority's
	// n3-less map from the vote replies, and the retry path must then
	// DRAIN, not declare victory because the map already excludes it.
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

// TestStaleSetmapIgnored: SETMAP applies the (Epoch, Version,
// Coordinator) order — a delayed stale map arriving after a newer one
// is a no-op, and equal-epoch rival maps resolve to the same winner on
// every node, so out-of-order delivery cannot roll membership back.
func TestStaleSetmapIgnored(t *testing.T) {
	h := newHarness(t, 2, 1)
	cur := h.node("n2").Map()

	older := cur.withNode("ghost", "127.0.0.1:1", cur.Epoch+1, "n1")
	newer := older.withoutNode("ghost", cur.Epoch+2, "n1")
	setmap := func(m *Map) {
		t.Helper()
		if _, err := h.do("n2", append([]string{"CLUSTER", "SETMAP"}, strings.Fields(m.Encode())...)...); err != nil {
			t.Fatal(err)
		}
	}
	setmap(newer) // the later mutation arrives first...
	setmap(older) // ...then the delayed stale one
	if got := h.node("n2").Map().Encode(); got != newer.Encode() {
		t.Fatalf("stale SETMAP rolled the map back: %s, want %s", got, newer.Encode())
	}

	// Equal-epoch rivals (only possible when a claim couldn't reach
	// quorum): the coordinator tie-break picks one winner, and
	// re-delivering the loser changes nothing.
	rivalA := newer.withNode("a", "127.0.0.1:1", newer.Epoch+1, "n1")
	rivalB := newer.withNode("b", "127.0.0.1:1", newer.Epoch+1, "n9")
	setmap(rivalA)
	setmap(rivalB) // n9 > n1: B wins
	setmap(rivalA) // loser re-delivered: still B
	if got := h.node("n2").Map().Encode(); got != rivalB.Encode() {
		t.Fatalf("equal-epoch tie not deterministic: %s, want %s", got, rivalB.Encode())
	}
}

// TestDeltaRebalanceMessageCount: a join must cost pushes proportional
// to the keys whose owner set changed, never an O(keys×replicas) full
// re-push: the digest rounds it runs ship only keys that differ.
func TestDeltaRebalanceMessageCount(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-key rebalance accounting skipped in -short")
	}
	nodes := startCluster(t, 3, 2)
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

	joiner, err := NewNode("n4", testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	if err := joiner.Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	newMap := nodes[0].Map()

	moved := 0
	for k := 0; k < total; k++ {
		oldIDs := slices.Clone(oldMap.ownerIDs(keyName(k)))
		newIDs := slices.Clone(newMap.ownerIDs(keyName(k)))
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
		t.Errorf("%d keys degraded to per-key ABSORB on a healthy cluster", fallbacks)
	}
	// The delta still replicated everything: spot-check counts.
	for k := 0; k < total; k += 101 {
		if got := mustCount(t, joiner, keyName(k)); int64(got+0.5) != 1 {
			t.Errorf("count %s = %v after delta rebalance, want ≈1", keyName(k), got)
		}
	}
}

// TestGossipAutoEvictsCrashedNode: a crashed node is suspected after
// SuspectAfter silent gossip rounds and auto-evicted once a quorum of
// members agrees — an epoch-fenced LEAVE no operator had to issue —
// and the survivors' maps converge with every count intact. Entirely
// fake-clock driven: the failure timeline is measured in rounds, not
// seconds.
func TestGossipAutoEvictsCrashedNode(t *testing.T) {
	h := newHarness(t, 3, 2)
	const keys = 20
	keyName := func(k int) string { return fmt.Sprintf("ev-%d", k) }
	ref := make([]float64, keys)
	for k := 0; k < keys; k++ {
		for e := 0; e < 4; e++ {
			if _, err := h.node("n1").Add(keyName(k), fmt.Sprintf("el-%d-%d", k, e)); err != nil {
				t.Fatal(err)
			}
		}
		ref[k] = mustCount(t, h.node("n1"), keyName(k))
	}

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
	if strings.Contains(enc, "n3=") {
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

// TestGossipMinorityCannotEvict: a node partitioned onto the minority
// side suspects everyone else but can never reach suspicion quorum
// (it cannot hear the other suspecters), so it never even attempts an
// eviction — and the epoch fence would refuse it if it did. The
// majority side meanwhile evicts the partitioned node; when the
// partition heals, the false-positive victim adopts the majority map,
// drains its keys to the current owners, and no data is lost.
func TestGossipMinorityCannotEvict(t *testing.T) {
	h := newHarness(t, 3, 2)
	const keys = 15
	keyName := func(k int) string { return fmt.Sprintf("mi-%d", k) }
	ref := make([]float64, keys)
	for k := 0; k < keys; k++ {
		for e := 0; e < 3; e++ {
			if _, err := h.node("n3").Add(keyName(k), fmt.Sprintf("el-%d-%d", k, e)); err != nil {
				t.Fatal(err)
			}
		}
		ref[k] = mustCount(t, h.node("n1"), keyName(k))
	}

	h.tick(2)
	h.partition("n3", true)
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

	// Heal: n3's next gossip push is answered with the n3-less map
	// (@map); installing it drains n3's sketches to the owners.
	h.partition("n3", false)
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
// then restarts from its snapshot and re-enters through the normal
// JOIN path — which tells it it was evicted — and gets its keys back
// via the ordinary delta rebalance, converging byte-identically with
// the survivors.
func TestGossipEvictedNodeRejoinsCleanly(t *testing.T) {
	h := newHarness(t, 3, 2)
	const keys = 25
	keyName := func(k int) string { return fmt.Sprintf("rj-%d", k) }
	ref := make([]float64, keys)
	for k := 0; k < keys; k++ {
		for e := 0; e < 4; e++ {
			if _, err := h.node("n2").Add(keyName(k), fmt.Sprintf("el-%d-%d", k, e)); err != nil {
				t.Fatal(err)
			}
		}
		ref[k] = mustCount(t, h.node("n1"), keyName(k))
	}

	h.tick(2)
	h.save("n3") // last periodic snapshot before the crash
	h.crash("n3")
	evs := h.tick(testSuspectAfter + 4)
	evictor := evs["n3"]
	if evictor == "" {
		t.Fatal("crashed node was never auto-evicted")
	}
	h.converge(10 * time.Second)

	// Restart from the snapshot. Join through the evicting coordinator:
	// the JOIN succeeds AND carries the eviction feedback.
	n3 := h.start("n3", h.addr("n3"))
	reply, err := h.do(evictor, "CLUSTER", "JOIN", "n3", n3.Addr())
	if err != nil {
		t.Fatalf("rejoin after eviction: %v", err)
	}
	if !strings.HasPrefix(reply, "OK") || !strings.Contains(reply, "rejoined-after-eviction=e") {
		t.Errorf("rejoin reply %q does not tell the node it was evicted", reply)
	}
	if err := n3.Rejoin(); err != nil { // pull the map, rebalance local state
		t.Fatalf("rejoin: %v", err)
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
	// The feedback is delivered exactly once.
	if reply, err := h.do(evictor, "CLUSTER", "JOIN", "n3", n3.Addr()); err != nil {
		t.Fatal(err)
	} else if strings.Contains(reply, "rejoined-after-eviction") {
		t.Errorf("idempotent re-join reply %q repeats the consumed eviction note", reply)
	}
}

// TestEvictionRecordGossipsToAllMembers: the rejoined-after-eviction
// record is no longer a private note of the evicting coordinator — it
// piggybacks on gossip digests, so after a few rounds EVERY member
// holds it and whichever member coordinates the rejoin delivers the
// feedback. Once the node is back on the map the records are
// garbage-collected everywhere, so no member re-delivers stale
// feedback later. Fully fake-clock driven.
func TestEvictionRecordGossipsToAllMembers(t *testing.T) {
	h := newHarness(t, 3, 2)
	for k := 0; k < 10; k++ {
		if _, err := h.node("n1").Add(fmt.Sprintf("er-%d", k), "x", "y"); err != nil {
			t.Fatal(err)
		}
	}
	h.tick(2)
	h.save("n3")
	h.crash("n3")
	evs := h.tick(testSuspectAfter + 4)
	evictor := evs["n3"]
	if evictor == "" {
		t.Fatal("crashed node was never auto-evicted")
	}
	h.converge(10 * time.Second)

	// A few more rounds spread the record to the non-evicting survivor.
	h.tick(3)
	epoch := uint64(0)
	for _, n := range h.running() {
		n.gsp.mu.Lock()
		e, ok := n.gsp.evictedAt["n3"]
		n.gsp.mu.Unlock()
		if !ok {
			t.Fatalf("%s never learned the eviction record via gossip", n.ID())
		}
		if epoch == 0 {
			epoch = e
		} else if e != epoch {
			t.Fatalf("%s holds eviction epoch %d, others %d", n.ID(), e, epoch)
		}
	}

	// Rejoin through a member that did NOT coordinate the eviction: it
	// must deliver the feedback all the same.
	deliverer := ""
	for _, n := range h.running() {
		if n.ID() != evictor {
			deliverer = n.ID()
			break
		}
	}
	n3 := h.start("n3", h.addr("n3"))
	reply, err := h.do(deliverer, "CLUSTER", "JOIN", "n3", n3.Addr())
	if err != nil {
		t.Fatalf("rejoin via non-evictor %s: %v", deliverer, err)
	}
	want := fmt.Sprintf("rejoined-after-eviction=e%d", epoch)
	if !strings.HasPrefix(reply, "OK") || !strings.Contains(reply, want) {
		t.Errorf("rejoin reply %q via %s lacks %q", reply, deliverer, want)
	}
	if err := n3.Rejoin(); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	h.converge(10 * time.Second)

	// With n3 back on the map, the next gossip rounds GC every record —
	// a later idempotent re-join (through ANY member, including the
	// original evictor) must not repeat the consumed feedback.
	h.tick(2)
	for _, n := range h.running() {
		n.gsp.mu.Lock()
		_, ok := n.gsp.evictedAt["n3"]
		n.gsp.mu.Unlock()
		if ok {
			t.Errorf("%s still holds the eviction record after the rejoin", n.ID())
		}
	}
	for _, id := range []string{evictor, deliverer} {
		reply, err := h.do(id, "CLUSTER", "JOIN", "n3", n3.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(reply, "rejoined-after-eviction") {
			t.Errorf("idempotent re-join via %s repeats the consumed eviction note: %q", id, reply)
		}
	}
}

// TestGossipStaleSuspectorDoesNotCountTowardQuorum: suspicion asserted
// by a node that has since left the map is stale hearsay — the quorum
// check must count only CURRENT members, or a single live suspecter
// plus a ghost could evict a node no live majority suspects.
func TestGossipStaleSuspectorDoesNotCountTowardQuorum(t *testing.T) {
	h := newHarness(t, 3, 2)
	h.tick(2) // settle heartbeats so the injected state cannot be refuted by an hb advance
	h.partition("n3", true)

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
	h := newHarness(t, 3, 2)
	h.tick(2)
	h.partition("n3", true)
	if evs := h.tick(testSuspectAfter - 1); len(evs) != 0 {
		t.Fatalf("transient partition evicted %v", evs)
	}
	h.partition("n3", false)
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

// TestSupersededJoinReportsWinner: two racing coordinators — one
// JOINing x1, one LEAVEing it — are serialized by the epoch fence, and
// the one whose mutation is erased before its handler returns replies
// +SUPERSEDED with the winning map's (Epoch, Version, Coordinator)
// instead of a silent +OK, closing the ROADMAP feedback gap. The
// interleaving is pinned with a gate (n1's transfer frames park until
// the rival LEAVE has landed), not with timers, so the race resolves
// the same way on every run.
func TestSupersededJoinReportsWinner(t *testing.T) {
	h := newHarness(t, 3, 2)
	const keys = 60 // enough keys that n1's join rebalance must push to x1
	for k := 0; k < keys; k++ {
		if _, err := h.node("n1").Add(fmt.Sprintf("sp-%d", k), "x", "y"); err != nil {
			t.Fatal(err)
		}
	}
	h.start("x1", "127.0.0.1:0")

	// Park n1's outbound transfer frames: its JOIN will claim, install
	// and then hang in its own pass, which moves data before it tells
	// the members — handler still open, outcome not yet reported.
	release := h.gate("n1", "XFER")
	defer release()
	joinReply := make(chan string, 1)
	go func() {
		reply, err := h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1"))
		if err != nil {
			reply = "ERR " + err.Error()
		}
		joinReply <- reply
	}()
	h.waitFor(10*time.Second, "join map on n1", func() bool { return h.node("n1").Map().Has("x1") })
	// The join map reaches n2 as a round of n1's would have brought it.
	if _, err := h.do("n2", setmapCommand(h.node("n1").Map())...); err != nil {
		t.Fatal(err)
	}

	// The rival coordinator: n2 LEAVEs x1. Its claim adopts the join
	// map from the vote replies and mints a newer map without x1, which
	// its pass and broadcast install on n1 immediately (SETMAP is not
	// gated — only n1's transfer frames are).
	leaveReply := make(chan string, 1)
	go func() {
		reply, err := h.do("n2", "CLUSTER", "LEAVE", "x1")
		if err != nil {
			reply = "ERR " + err.Error()
		}
		leaveReply <- reply
	}()
	h.waitFor(10*time.Second, "winner map on n1", func() bool { return !h.node("n1").Map().Has("x1") })

	// Only now may n1 finish its join rebalance and report the outcome.
	release()
	reply := <-joinReply
	if !strings.HasPrefix(reply, "SUPERSEDED") {
		t.Fatalf("join reply %q, want SUPERSEDED (the LEAVE won before the join handler returned)", reply)
	}
	if !strings.Contains(reply, "c=n2") {
		t.Errorf("superseded reply %q does not name the winning coordinator n2", reply)
	}
	want := h.node("n1").Map().Triple()
	if got := strings.TrimSpace(strings.TrimPrefix(reply, "SUPERSEDED")); got != want {
		t.Errorf("superseded reply carries %q, want the winning triple %q", got, want)
	}
	if lr := <-leaveReply; !strings.HasPrefix(lr, "OK") {
		t.Errorf("winning LEAVE reply %q, want OK", lr)
	}
	enc := h.converge(10 * time.Second)
	if strings.Contains(enc, "x1=") {
		t.Errorf("converged map %s still lists x1 after the LEAVE won", enc)
	}
}

// storeClock is the fake time source TTL chaos tests inject through
// newHarnessClock: expiry is judged everywhere against this counter, so
// "the deadline passes" is an explicit, deterministic event.
type storeClock struct{ ms atomic.Int64 }

func newStoreClock(startMillis int64) *storeClock {
	c := &storeClock{}
	c.ms.Store(startMillis)
	return c
}

func (c *storeClock) now() time.Time          { return time.UnixMilli(c.ms.Load()) }
func (c *storeClock) advance(d time.Duration) { c.ms.Add(d.Milliseconds()) }

// TestTTLChaosDeterministicExpiry: keys with a replicated absolute
// deadline expire at the same instant on every replica — across a join
// rebalance (deadlines ride transfer frames) and a crash-restart from
// snapshot (deadlines ride snapshot records) — with no premature loss
// before the deadline and no ghost resurrection after it, while
// deadline-free keys are untouched. Entirely fake-clock driven.
func TestTTLChaosDeterministicExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("TTL chaos harness skipped in -short")
	}
	const base = int64(1_700_000_000_000)
	clk := newStoreClock(base)
	h := newHarnessClock(t, 3, 2, nil, clk.now)

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
			for _, id := range m.ownerIDs(ttlName(k)) {
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
	h.start("x1", "127.0.0.1:0")
	if _, err := h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1")); err != nil {
		t.Fatal(err)
	}
	h.converge(10 * time.Second)
	moved := 0
	for k := 0; k < ttlKeys; k++ {
		if slices.Contains(h.node("n1").Map().ownerIDs(ttlName(k)), "x1") {
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
	clk.advance(time.Minute + time.Second)
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

// TestGossipPiggybackHealsWithoutMapPull: a node that missed a SETMAP
// broadcast heals through the map payload piggybacked on ordinary
// gossip digests — zero CLUSTER MAP pull rounds, and at most a handful
// of targeted SETMAPs. The test counts every message on the wire
// during the heal.
func TestGossipPiggybackHealsWithoutMapPull(t *testing.T) {
	h := newHarness(t, 3, 2)
	h.tick(2) // healthy baseline

	// n3 misses a join while partitioned.
	h.partition("n3", true)
	h.start("x1", "127.0.0.1:0")
	h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1")) // broadcast to n3 fails: that is the point
	if !h.node("n1").Map().Has("x1") {
		t.Fatal("join did not land on the majority")
	}
	if h.node("n3").Map().Has("x1") {
		t.Fatal("partitioned n3 saw the broadcast — the partition hook is leaky")
	}

	// Heal, then count every message while ONLY gossip rounds run — no
	// converge, no digest round.
	h.partition("n3", false)
	var msgMu sync.Mutex
	var mapPulls, setmaps, gossips int
	var setmapBytes, gossipBytes int
	h.setIntercept(func(id, addr string, parts []string) error {
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
	h.setIntercept(nil)

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
	if mapPulls != 0 {
		t.Errorf("heal fell back to %d CLUSTER MAP pull(s) — the piggyback did not carry the map", mapPulls)
	}
	if gossips == 0 {
		t.Error("no gossip traffic observed during the heal rounds")
	}
	// The laggard is healed by the first digests it touches; SETMAPs
	// stay targeted (no O(members) spray, no repeat after the heal).
	if setmaps > 8 {
		t.Errorf("heal broadcast %d SETMAPs — targeted push degraded to a spray", setmaps)
	}
}

// TestGossipOversizedMapFallsBackToOnePull: a map too large to ride a
// gossip reply beside the digest is the one case a laggard has to pull
// — and it pulls from the one peer whose reply showed the newer triple,
// once, not from every member.
func TestGossipOversizedMapFallsBackToOnePull(t *testing.T) {
	h := newHarness(t, 2, 1)
	n1, n2 := h.node("n1"), h.node("n2")
	// 2000 members with 60-byte ids at a dead address: the map and n1's
	// digest each fit maxWireBytes, together they do not. The fake ids
	// sort first, so n1's own gossip round below targets two of them
	// (refused dials) and never reaches n2.
	cur := n1.Map()
	tokens := strings.Fields(cur.withNode("n1", cur.Addr("n1"), cur.Epoch+1, "n1").Encode())
	for i := 0; i < 2000; i++ {
		tokens = append(tokens, fmt.Sprintf("a%059d=127.0.0.1:1", i))
	}
	big, err := DecodeMap(tokens)
	if err != nil {
		t.Fatalf("fixture map: %v", err)
	}
	// Installed without the digest round an install runs: its refused DSUM
	// would hand n2 the map before the exchange under test.
	if !n1.swapMap(big) {
		t.Fatal("fixture: the big map did not supersede n1's")
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
