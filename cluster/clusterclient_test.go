package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exaloglog/internal/core"
	"exaloglog/server"
)

// findKeyWhere returns a deterministic key whose owner-ID set under m
// satisfies pred. The consistent-hash ring is a pure function of the
// member IDs, so the search (and thus the whole test) is reproducible.
func findKeyWhere(t *testing.T, m *Map, pred func(ids []string) bool) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if pred(m.ownerIDs(k)) {
			return k
		}
	}
	t.Fatal("no key with the wanted ownership found")
	return ""
}

// TestPoolClassifiesByTransport is the satellite-1 regression: any
// parsed reply line — success, a novel -ERR, a -MOVED redirect, a
// missing key — keeps the pooled connection and counts as liveness
// evidence; only transport failures drop it. Before the fix, an
// unrecognized error reply tore down a healthy connection AND withheld
// the alive() signal, feeding spurious suspicion into the failure
// detector about a peer that had just answered.
func TestPoolClassifiesByTransport(t *testing.T) {
	store, err := server.NewStore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(store)
	srv.Handle("WEIRD", func(args []string) string { return "-ERR totally novel failure" })
	srv.Handle("BOUNCE", func(args []string) string { return "-MOVED e=9 nX=127.0.0.1:1" })
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	p := newPool()
	defer p.closeAll()
	var alive atomic.Int64
	p.alive = func(string) { alive.Add(1) }

	if _, err := p.do(addr, "PING"); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	first := p.conns[addr]
	p.mu.Unlock()

	if _, err := p.do(addr, "WEIRD"); err == nil || !server.IsReplyErr(err) {
		t.Fatalf("WEIRD: err = %v, want a reply-classified error", err)
	}
	if _, err := p.do(addr, "BOUNCE"); err == nil {
		t.Fatal("BOUNCE: expected an error")
	} else if _, ok := server.AsMoved(err); !ok {
		t.Fatalf("BOUNCE: err = %v, want MovedError", err)
	}
	if _, err := p.do(addr, "DUMP", "missing"); !errors.Is(err, server.ErrNoSuchKey) || !server.IsReplyErr(err) {
		t.Fatalf("DUMP missing: err = %v, want reply-classified ErrNoSuchKey", err)
	}

	p.mu.Lock()
	cur := p.conns[addr]
	p.mu.Unlock()
	if cur != first {
		t.Error("an error reply redialed a healthy connection")
	}
	if got := alive.Load(); got != 4 {
		t.Errorf("alive fired %d times, want 4 (every parsed reply is liveness evidence)", got)
	}

	// Transport failure is the only thing that drops the connection —
	// and it must NOT claim liveness credit.
	srv.Close()
	if _, err := p.do(addr, "PING"); err == nil || server.IsReplyErr(err) {
		t.Fatalf("dead server: err = %v, want a transport-grade error", err)
	}
	p.mu.Lock()
	_, cached := p.conns[addr]
	p.mu.Unlock()
	if cached {
		t.Error("transport failure left the dead connection cached")
	}
	if got := alive.Load(); got != 4 {
		t.Errorf("alive fired %d times after transport failure, want still 4", got)
	}
}

// TestStrictRoutingMoved covers the server half of the tentpole: under
// strict routing a non-owner bounces public single-key verbs with an
// epoch-tagged -MOVED naming the primary owner, keeps serving multi-key
// scatter-gathers, and stays in coordinator mode for everything when
// strict routing is off.
func TestStrictRoutingMoved(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	m := nodes[0].Map()
	key := findKeyWhere(t, m, func(ids []string) bool { return !slices.Contains(ids, "n1") })
	owners := m.Owners(key)

	c, err := server.Dial(nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Strict routing off (the default): the non-owner forwards.
	if _, err := c.Do("PFADD", key, "x"); err != nil {
		t.Fatalf("coordinator mode must forward: %v", err)
	}

	nodes[0].SetStrictRouting(true)
	verbs := [][]string{
		{"PFADD", key, "y"},
		{"PFCOUNT", key},
		{"WADD", key, "1700000000000", "y"},
		{"WCOUNT", key, "30s"},
		{"WINFO", key},
		{"DEL", key},
	}
	for _, parts := range verbs {
		_, err := c.Do(parts...)
		mv, ok := server.AsMoved(err)
		if !ok {
			t.Fatalf("%s on a non-owner: err = %v, want MOVED", parts[0], err)
		}
		if mv.Epoch != m.Epoch || mv.NodeID != owners[0].ID || mv.Addr != owners[0].Addr {
			t.Errorf("%s redirect = %+v, want e=%d %s=%s", parts[0], mv, m.Epoch, owners[0].ID, owners[0].Addr)
		}
	}
	if got := nodes[0].StatsCounters().MovedReplies; got != uint64(len(verbs)) {
		t.Errorf("moved_replies = %d, want %d", got, len(verbs))
	}

	// Multi-key PFCOUNT has no single owner to point at: always served.
	otherKey := findKeyWhere(t, m, func(ids []string) bool { return slices.Contains(ids, "n1") })
	if _, err := c.Do("PFCOUNT", key, otherKey); err != nil {
		t.Errorf("multi-key PFCOUNT under strict routing: %v", err)
	}
	// A key this node owns is served normally.
	if _, err := c.Do("PFADD", otherKey, "z"); err != nil {
		t.Errorf("owned key under strict routing: %v", err)
	}
}

// TestInternalForwardsExemptFromStrictRouting is the satellite-3 test:
// the internal replication verbs bypass the strict check entirely, so a
// replica can never -MOVED an internal forward — the classic redirect-
// loop bug in this design — even while a rebalance is reshuffling
// ownership under strict routing cluster-wide.
func TestInternalForwardsExemptFromStrictRouting(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	for _, n := range nodes {
		n.SetStrictRouting(true)
	}
	m := nodes[0].Map()
	key := findKeyWhere(t, m, func(ids []string) bool { return !slices.Contains(ids, "n1") })

	c, err := server.Dial(nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every internal data verb is served by the non-owner n1 where the
	// public equivalent would bounce.
	internal := [][]string{
		{"CLUSTER", "MLADD", "1", "p", key, batchB64(t, "x")},
		{"CLUSTER", "LEXPIREAT", key, "99999999999999"},
		{"CLUSTER", "LDEADLINE", key},
		{"CLUSTER", "LPERSIST", key},
		{"CLUSTER", "MLADD", "1", "w", key + "-w", "1700000000000", "1", batchB64(t, "x")},
		{"CLUSTER", "LDEL", key + "-w"},
		{"CLUSTER", "LKEYS"},
	}
	for _, parts := range internal {
		if _, err := c.Do(parts...); err != nil {
			t.Fatalf("internal %s %s on a non-owner bounced: %v", parts[0], parts[1], err)
		}
	}

	movedSum := func() uint64 {
		var sum uint64
		for _, n := range nodes {
			sum += n.StatsCounters().MovedReplies
		}
		return sum
	}
	before := movedSum()

	// A write burst through coordinator-mode forwarding (Node.Add fans
	// MLADD out to owners) while a join-triggered rebalance pushes
	// ABSORB blobs around — all internal traffic, none of it may bounce.
	for i := 0; i < 32; i++ {
		if _, err := nodes[i%3].Add(fmt.Sprintf("burst-%d", i), "el"); err != nil {
			t.Fatal(err)
		}
	}
	n4, err := NewNode("n4", testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	n4.SetStrictRouting(true)
	if err := n4.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n4.Close() })
	if err := n4.Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 32; i < 64; i++ {
		if _, err := nodes[i%3].Add(fmt.Sprintf("burst-%d", i), "el"); err != nil {
			t.Fatal(err)
		}
	}
	if after := movedSum() + n4.StatsCounters().MovedReplies; after != before {
		t.Errorf("internal replication traffic drew %d -MOVED replies during rebalance", after-before)
	}
}

// TestForwardRetriesOnFreshMap is the satellite-2 test: a coordinator
// forward held on the wire while its target owner crashes and a new map
// is installed must re-resolve owners against the fresh map once,
// instead of surfacing the transport error. The gate-style hook makes
// the interleaving deterministic: the Add resolves owners under the old
// map, parks before dialing the doomed owner, and only proceeds after
// the crash and the map flip.
func TestForwardRetriesOnFreshMap(t *testing.T) {
	mk := func(id string) *Node {
		t.Helper()
		n, err := NewNode(id, testConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n1, n2, n3 := mk("n1"), mk("n2"), mk("n3")

	var arm atomic.Bool
	var victimAddr atomic.Value // string
	victimAddr.Store("")
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	n1.setFaultHook(func(addr string, parts []string) error {
		if arm.Load() && addr == victimAddr.Load().(string) &&
			len(parts) >= 2 && parts[0] == "CLUSTER" && parts[1] == "MLADD" {
			arrived <- struct{}{}
			<-release
		}
		return nil
	})

	for _, n := range []*Node{n1, n2, n3} {
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { n1.Close(); n2.Close(); n3.Close() })
	for _, n := range []*Node{n2, n3} {
		if err := n.Join(n1.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	// A key n1 does not own: its Add forwards to both remote owners.
	m := n1.Map()
	key := findKeyWhere(t, m, func(ids []string) bool { return !slices.Contains(ids, "n1") })
	owners := m.Owners(key)
	byID := map[string]*Node{"n2": n2, "n3": n3}
	victim := byID[owners[0].ID]
	victimAddr.Store(owners[0].Addr)
	arm.Store(true)

	done := make(chan error, 1)
	go func() {
		_, err := n1.Add(key, "survivor")
		done <- err
	}()
	<-arrived // the forward resolved owners under the OLD map and is parked
	arm.Store(false)

	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	next := m.withoutNode(victim.ID(), m.Epoch+1, "n1")
	if err := n1.installAndSync(next); err != nil {
		t.Fatal(err)
	}
	close(release) // the parked forward now dials a dead node and must retry

	if err := <-done; err != nil {
		t.Fatalf("Add must survive an owner crash mid-forward via the fresh map: %v", err)
	}
	// The retry landed the write under the new map.
	got, err := n1.Count(key)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.MustNew(testConfig())
	ref.AddString("survivor")
	if got != ref.Estimate() {
		t.Errorf("count = %v, want %v — the retried write is missing", got, ref.Estimate())
	}
}

// TestClusterClientSingleHop drives the smart client against a fresh
// map: every op lands on an owner first try — zero redirects on either
// side — and the batch API keeps results in queue order.
func TestClusterClientSingleHop(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	for _, n := range nodes {
		n.SetStrictRouting(true)
	}
	cc, err := DialCluster(nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("sh-%d", i)
		changed, err := cc.Add(k, "a", "b")
		if err != nil {
			t.Fatalf("Add %s: %v", k, err)
		}
		if !changed {
			t.Errorf("Add %s reported unchanged", k)
		}
	}
	ref := core.MustNew(testConfig())
	ref.AddString("a")
	ref.AddString("b")
	want := int64(ref.Estimate() + 0.5)
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("sh-%d", i)
		got, err := cc.Count(k)
		if err != nil {
			t.Fatalf("Count %s: %v", k, err)
		}
		if got != want {
			t.Errorf("Count %s = %d, want %d", k, got, want)
		}
	}

	// Windowed verbs route the same way.
	const ts = int64(1700000000000)
	accepted, err := cc.WAdd("sh-win", ts, "x", "y")
	if err != nil || accepted != 2 {
		t.Fatalf("WAdd = %d, %v; want 2 accepted", accepted, err)
	}
	if got, err := cc.WCount("sh-win", time.Minute); err != nil || got != 2 {
		t.Fatalf("WCount = %d, %v; want 2", got, err)
	}

	if existed, err := cc.Del("sh-0"); err != nil || !existed {
		t.Fatalf("Del = %v, %v; want existed", existed, err)
	}
	if got, err := cc.Count("sh-0"); err != nil || got != 0 {
		t.Fatalf("Count after Del = %d, %v; want 0", got, err)
	}

	// A mixed batch fans out by key but returns results in queue order.
	b := cc.Batch()
	b.PFAdd("sh-1", "c")
	b.PFCount("sh-2")
	b.WCount("sh-win", time.Minute)
	b.Del("sh-3")
	results, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}
	wantVals := []string{"1", "2", "2", "1"}
	if len(results) != len(wantVals) {
		t.Fatalf("batch returned %d results, want %d", len(results), len(wantVals))
	}
	for i, r := range results {
		if r.Err != nil || r.Value != wantVals[i] {
			t.Errorf("batch result %d = %q/%v, want %q", i, r.Value, r.Err, wantVals[i])
		}
	}

	// Fresh map: not a single redirect anywhere.
	if s := cc.Stats(); s.Moved != 0 || s.Failovers != 0 {
		t.Errorf("client stats = %+v, want zero redirects/failovers on a fresh map", s)
	}
	var movedSum uint64
	for _, n := range nodes {
		movedSum += n.StatsCounters().MovedReplies
	}
	if movedSum != 0 {
		t.Errorf("nodes sent %d -MOVED replies to a fresh-mapped client", movedSum)
	}
}

// TestClusterClientFollowsMovedAfterRebalance grows the cluster behind
// the client's back: ops on keys whose owners moved must bounce once,
// drag the map forward (epoch order), and converge — no lost writes.
func TestClusterClientFollowsMovedAfterRebalance(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	for _, n := range nodes {
		n.SetStrictRouting(true)
	}
	cc, err := DialCluster(nodes[0].Addr(), nodes[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.minRefetch = time.Millisecond

	const keys = 48
	key := func(i int) string { return fmt.Sprintf("mv-%d", i) }
	ref := make(map[string]*core.Sketch, keys)
	for i := 0; i < keys; i++ {
		ref[key(i)] = core.MustNew(testConfig())
	}
	for i := 0; i < keys; i++ {
		el := fmt.Sprintf("first-%d", i)
		ref[key(i)].AddString(el)
		if _, err := cc.Add(key(i), el); err != nil {
			t.Fatal(err)
		}
	}
	oldMap := cc.Map()

	// Grow the cluster; the client's map is now one epoch behind.
	n4, err := NewNode("n4", testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	n4.SetStrictRouting(true)
	if err := n4.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n4.Close() })
	if err := n4.Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	newMap := nodes[0].Map()

	// How many keys will bounce is a pure function of the ring: those
	// whose old primary is no longer an owner at all.
	expectBounce := 0
	for i := 0; i < keys; i++ {
		oldPrimary := oldMap.ownerIDs(key(i))[0]
		if !slices.Contains(newMap.ownerIDs(key(i)), oldPrimary) {
			expectBounce++
		}
	}

	for i := 0; i < keys; i++ {
		el := fmt.Sprintf("second-%d", i)
		ref[key(i)].AddString(el)
		if _, err := cc.Add(key(i), el); err != nil {
			t.Fatalf("Add %s against a stale map: %v", key(i), err)
		}
	}

	s := cc.Stats()
	if expectBounce > 0 {
		if s.Moved == 0 {
			t.Errorf("expected redirects for %d moved keys, client followed none", expectBounce)
		}
		if s.MapRefetches == 0 {
			t.Error("a -MOVED beyond the client's epoch must trigger a map refetch")
		}
		if got := cc.Map(); !got.Newer(oldMap) {
			t.Errorf("client map did not move forward (still e=%d v=%d)", got.Epoch, got.Version)
		}
	}

	// No lost writes: every key counts exactly its reference estimate.
	for i := 0; i < keys; i++ {
		got, err := nodes[0].Count(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != ref[key(i)].Estimate() {
			t.Errorf("count %s = %v, want %v", key(i), got, ref[key(i)].Estimate())
		}
	}
}

// TestClusterClientFailsOverOnDeadOwner crashes a key's primary after
// an operator LEAVE has made the survivors' map current: the client —
// still holding the old map — must fail over on the transport error,
// refetch, and converge on the surviving replica.
func TestClusterClientFailsOverOnDeadOwner(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	for _, n := range nodes {
		n.SetStrictRouting(true)
	}
	cc, err := DialCluster(nodes[0].Addr(), nodes[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.minRefetch = time.Millisecond

	// A key whose primary is n3 — the node we will crash.
	m := nodes[0].Map()
	key := findKeyWhere(t, m, func(ids []string) bool { return ids[0] == "n3" })
	if _, err := cc.Add(key, "x"); err != nil {
		t.Fatal(err)
	}

	// Crash n3, then evict it through a survivor (epoch-fenced LEAVE,
	// survivors re-replicate). The client still routes by the old map.
	nodes[2].Close()
	c, err := server.Dial(nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do("CLUSTER", "LEAVE", "n3"); err != nil {
		t.Fatal(err)
	}

	got, err := cc.Count(key)
	if err != nil {
		t.Fatalf("Count after primary crash: %v", err)
	}
	ref := core.MustNew(testConfig())
	ref.AddString("x")
	if got != int64(ref.Estimate()+0.5) {
		t.Errorf("count = %d, want %d", got, int64(ref.Estimate()+0.5))
	}
	if s := cc.Stats(); s.Failovers == 0 {
		t.Errorf("client stats = %+v, want at least one transport failover", s)
	}
	if cur := cc.Map(); slices.Contains(cur.ownerIDs(key), "n3") {
		t.Error("client map still names the evicted node as an owner")
	}
}

// TestClusterClientMidRebalanceChaos is the satellite-4 chaos test: 64
// hot keys under concurrent batched load while a join reshuffles the
// ring. Every op must converge within the redirect budget (any budget
// exhaustion is a Result error and fails the test), no write may be
// lost, and moved_replies must go quiet once the map settles.
func TestClusterClientMidRebalanceChaos(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	for _, n := range nodes {
		n.SetStrictRouting(true)
	}
	cc, err := DialCluster(nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.minRefetch = time.Millisecond

	const hotKeys = 64
	key := func(i int) string { return fmt.Sprintf("hot-%d", ((i%hotKeys)+hotKeys)%hotKeys) }
	var refMu sync.Mutex
	ref := make(map[string]*core.Sketch, hotKeys)
	for i := 0; i < hotKeys; i++ {
		ref[key(i)] = core.MustNew(testConfig())
	}

	const workers = 4
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b := cc.Batch()
				els := make([]string, 16)
				for j := 0; j < 16; j++ {
					els[j] = fmt.Sprintf("el-%d-%d-%d", w, i, j)
					b.PFAdd(key(w*16+i*16+j), els[j])
				}
				results, err := b.Exec()
				if err != nil {
					errCh <- err
					return
				}
				for j, r := range results {
					if r.Err != nil {
						errCh <- fmt.Errorf("op %s: %w", key(w*16+i*16+j), r.Err)
						return
					}
				}
				refMu.Lock()
				for j, el := range els {
					ref[key(w*16+i*16+j)].AddString(el)
				}
				refMu.Unlock()
			}
		}(w)
	}

	// Mid-load: a 4th node joins — epoch bump, ring reshuffle, delta
	// rebalance — while the client keeps hammering the hot keys.
	time.Sleep(10 * time.Millisecond)
	n4, err := NewNode("n4", testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	n4.SetStrictRouting(true)
	if err := n4.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n4.Close() })
	if err := n4.Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond) // load keeps running against the settled map
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("an op failed to converge within the redirect budget: %v", err)
	default:
	}

	all := append(append([]*Node{}, nodes...), n4)
	movedSum := func() uint64 {
		var sum uint64
		for _, n := range all {
			sum += n.StatsCounters().MovedReplies
		}
		return sum
	}

	// Force the client onto the settled map (deterministic sync: the
	// rate limiter is bypassed by rewinding its clock), then assert
	// quiescence: a full sweep over every hot key draws zero new
	// -MOVED replies anywhere.
	cc.fetchMu.Lock()
	cc.lastFetch = time.Time{}
	cc.fetchMu.Unlock()
	cc.refetchMap(cc.Map().Epoch)
	if got, want := cc.Map().Epoch, n4.Map().Epoch; got != want {
		t.Fatalf("client map epoch %d after refetch, cluster at %d", got, want)
	}
	before := movedSum()
	for i := 0; i < hotKeys; i++ {
		if _, err := cc.Count(key(i)); err != nil {
			t.Fatalf("quiet-phase Count %s: %v", key(i), err)
		}
		el := fmt.Sprintf("quiet-%d", i)
		refMu.Lock()
		ref[key(i)].AddString(el)
		refMu.Unlock()
		if _, err := cc.Add(key(i), el); err != nil {
			t.Fatalf("quiet-phase Add %s: %v", key(i), err)
		}
	}
	if after := movedSum(); after != before {
		t.Errorf("moved_replies rose %d→%d after the map settled — not quiescent", before, after)
	}

	// No lost writes: every hot key matches its reference sketch.
	for i := 0; i < hotKeys; i++ {
		got, err := nodes[0].Count(key(i))
		if err != nil {
			t.Fatal(err)
		}
		refMu.Lock()
		want := ref[key(i)].Estimate()
		refMu.Unlock()
		if got != want {
			t.Errorf("count %s = %v, want %v — writes lost in the rebalance", key(i), got, want)
		}
	}
}
