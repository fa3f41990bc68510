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
// satisfies pred. Placement is a pure function of the member IDs, so the
// search (and thus the whole test) is reproducible.
func findKeyWhere(t *testing.T, m *Map, pred func(ids []string) bool) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if pred(ownerIDs(m, k)) {
			return k
		}
	}
	t.Fatal("no key with the wanted ownership found")
	return ""
}

// TestPoolClassifiesByTransport: any parsed reply line — success, a
// novel -ERR, an error reply of an unknown kind, a missing key — puts the
// connection back on the idle list and counts as liveness evidence; only
// transport failures close it. Before the fix, an
// unrecognized error reply tore down a healthy connection AND withheld
// the alive() signal, feeding spurious suspicion into the failure
// detector about a peer that had just answered.
func TestPoolClassifiesByTransport(t *testing.T) {
	t.Parallel()
	store, err := server.NewStore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(store)
	srv.Handle("WEIRD", 0, -1, "", func(reply []byte, _ [][]byte) []byte { return append(reply, "-ERR totally novel failure"...) })
	srv.Handle("BOUNCE", 0, -1, "", func(reply []byte, _ [][]byte) []byte { return append(reply, "-MOVED e=9 nX=127.0.0.1:1"...) })
	h := newHarness(t, harnessOpts{})
	h.serve(srv)
	addr := srv.Addr()

	p := newPool(h.fab.dialer(""))
	defer p.closeAll()
	var alive atomic.Int64
	p.alive = func(string) { alive.Add(1) }

	if _, err := p.do(addr, "PING"); err != nil {
		t.Fatal(err)
	}
	first := p.idleConns(addr)
	if len(first) != 1 {
		t.Fatalf("%d idle connections after a PING, want 1", len(first))
	}

	if _, err := p.do(addr, "WEIRD"); err == nil || !server.IsReplyErr(err) {
		t.Fatalf("WEIRD: err = %v, want a reply-classified error", err)
	}
	if _, err := p.do(addr, "BOUNCE"); err == nil || !server.IsReplyErr(err) {
		t.Fatalf("BOUNCE: err = %v, want a reply-classified error", err)
	}
	if _, err := p.do(addr, "DUMP", "missing"); !errors.Is(err, server.ErrNoSuchKey) || !server.IsReplyErr(err) {
		t.Fatalf("DUMP missing: err = %v, want reply-classified ErrNoSuchKey", err)
	}

	if cur := p.idleConns(addr); !slices.Equal(cur, first) {
		t.Error("an error reply redialed a healthy connection")
	}
	if got := alive.Load(); got != 4 {
		t.Errorf("alive fired %d times, want 4 (every parsed reply is liveness evidence)", got)
	}

	// Transport failure is the only thing that closes the connection —
	// and it must NOT claim liveness credit.
	srv.Close()
	if _, err := p.do(addr, "PING"); err == nil || server.IsReplyErr(err) {
		t.Fatalf("dead server: err = %v, want a transport-grade error", err)
	}
	if idle := p.idleConns(addr); len(idle) != 0 {
		t.Error("transport failure left the dead connection idle")
	}
	if got := alive.Load(); got != 4 {
		t.Errorf("alive fired %d times after transport failure, want still 4", got)
	}
}

// TestRebalanceLosesNoPublicWrite: public writes sent to every node —
// owners and non-owners alike, forwarded to the owners — before and
// after a join moves keys to the joiner are all counted afterwards, through
// every node.
func TestRebalanceLosesNoPublicWrite(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	nodes := h.running()
	c := h.dial(nodes[0].Addr())

	const keys = 64
	ref := make([]*core.Sketch, keys)
	for i := range ref {
		ref[i] = core.MustNew(testConfig())
	}
	write := func(i int, via func(key, el string) error) {
		t.Helper()
		key, el := fmt.Sprintf("burst-%d", i%keys), fmt.Sprintf("el-%d", i)
		if err := via(key, el); err != nil {
			t.Fatalf("write %s: %v", key, err)
		}
		ref[i%keys].AddString(el)
	}
	wire := func(key, el string) error { _, err := c.PFAdd(key, el); return err }
	// Through the wire to n1 and through the Go API of every node.
	for i := 0; i < keys; i++ {
		write(i, wire)
		write(i+keys, func(key, el string) error { _, err := nodes[i%3].Add(key, el); return err })
	}
	n4 := h.start("n4")
	if err := n4.Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*Node{}, nodes...), n4)
	for i := 2 * keys; i < 3*keys; i++ {
		write(i, wire)
		write(i+keys, func(key, el string) error { _, err := all[i%4].Add(key, el); return err })
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("burst-%d", i)
		for _, n := range all {
			if got, err := n.Count(key); err != nil || got != ref[i].Estimate() {
				t.Errorf("%s counts %s = %v, %v; want %v", n.ID(), key, got, err, ref[i].Estimate())
			}
		}
	}
}

// TestForwardRetriesOnFreshMap is the satellite-2 test: a coordinator
// forward held on the wire while its target owner crashes and a new map
// is installed must re-resolve owners against the fresh map once,
// instead of surfacing the transport error. An intercept makes the
// interleaving deterministic: the Add resolves owners under the old map,
// its forward parks on the wire to the doomed owner, and it only proceeds
// after the crash and the map flip.
func TestForwardRetriesOnFreshMap(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	n1 := h.node("n1")
	// A key n1 does not own: its Add forwards to both remote owners.
	m := n1.Map()
	key := findKeyWhere(t, m, func(ids []string) bool { return !slices.Contains(ids, "n1") })
	owners := m.Owners(key)
	victim := h.node(owners[0].ID)

	var parked atomic.Bool // the first forward to the victim parks, no other
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	h.fab.setIntercept(func(from, to string, parts []string) error {
		if from == "n1" && to == owners[0].Addr && len(parts) >= 2 &&
			parts[0] == "CLUSTER" && parts[1] == "MLADD" && !parked.Swap(true) {
			arrived <- struct{}{}
			<-release
		}
		return nil
	})

	done := make(chan error, 1)
	go func() {
		_, err := n1.Add(key, "survivor")
		done <- err
	}()
	<-arrived // the forward resolved owners under the OLD map and is parked

	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	next := m.withoutNode(victim.ID())
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
// map: every op lands on an owner first try — no failover, no refetch.
func TestClusterClientSingleHop(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	cc, err := dialCluster(h.fab.dialer("client"), h.addr("n1"))
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

	if reply, err := cc.run("sh-0", "DEL", "sh-0"); err != nil || reply != "1" {
		t.Fatalf("DEL = %q, %v; want 1 (existed)", reply, err)
	}
	if got, err := cc.Count("sh-0"); err != nil || got != 0 {
		t.Fatalf("Count after Del = %d, %v; want 0", got, err)
	}

	// Every other verb takes the same single hop.
	if changed, err := cc.Add("sh-1", "c"); err != nil || !changed {
		t.Errorf("Add sh-1 = %v, %v; want changed", changed, err)
	}
	if got, err := cc.Count("sh-2"); err != nil || got != want {
		t.Errorf("Count sh-2 = %d, %v; want %d", got, err, want)
	}
	if got, err := cc.WCount("sh-win", time.Minute); err != nil || got != 2 {
		t.Errorf("WCount sh-win = %d, %v; want 2", got, err)
	}
	if reply, err := cc.run("sh-3", "DEL", "sh-3"); err != nil || reply != "1" {
		t.Errorf("DEL sh-3 = %q, %v; want 1 (existed)", reply, err)
	}

	if s := cc.Stats(); s != (ClientStats{}) {
		t.Errorf("client stats = %+v, want all zero on a fresh map", s)
	}
}

// staleClientRun writes to and reads from keys through a ClusterClient
// whose map a membership change has made stale: every Add, Count, WAdd
// and WCount must succeed, each count must equal a reference sketch fed
// every acknowledged write, and the client must keep its old map — no
// redirect, no failover, no refetch. Some key's owners must differ
// between old and cur, so that the old map routes some op wrong.
func staleClientRun(t *testing.T, cc *ClusterClient, old, cur *Map) {
	t.Helper()
	const keys = 48
	const ts = int64(1700000000000)
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("st-%d", i)
		ref := core.MustNew(testConfig())
		for j := 0; j < 3; j++ {
			el := fmt.Sprintf("el-%d-%d", i, j)
			if _, err := cc.Add(key, el); err != nil {
				t.Fatalf("Add %s: %v", key, err)
			}
			if n, err := cc.WAdd(key+"-w", ts, el); err != nil || n != 1 {
				t.Fatalf("WAdd %s = %d, %v; want 1 accepted", key, n, err)
			}
			ref.AddString(el)
		}
		want := int64(ref.Estimate() + 0.5)
		if got, err := cc.Count(key); err != nil || got != want {
			t.Errorf("Count %s = %d, %v; want %d", key, got, err, want)
		}
		if got, err := cc.WCount(key+"-w", time.Minute); err != nil || got != want {
			t.Errorf("WCount %s = %d, %v; want %d", key, got, err, want)
		}
		if !slices.Equal(ownerIDs(cur, key), ownerIDs(old, key)) {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no key changed owners: the old map routed nothing wrong")
	}
	if cc.Map() != old {
		t.Error("the client replaced its map")
	}
	if s := cc.Stats(); s != (ClientStats{}) {
		t.Errorf("client stats = %+v, want all zero: a stale map is forwarded, not bounced or failed over", s)
	}
}

// TestClusterClientStaleAfterJoin: a client dialed before a JOIN keeps
// routing by the old map; the nodes it reaches forward to the new
// owners, so nothing is lost and nothing bounces.
func TestClusterClientStaleAfterJoin(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	cc, err := dialCluster(h.fab.dialer("client"), h.addr("n1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	old := cc.Map()

	n4 := h.start("n4")
	if err := n4.Join(h.addr("n1")); err != nil {
		t.Fatal(err)
	}
	staleClientRun(t, cc, old, n4.Map())
}

// TestClusterClientStaleAfterLeave: a client dialed before a LEAVE keeps
// sending a third of its keys to the node that left; that node, still
// up, forwards them to their owners under the map without it.
func TestClusterClientStaleAfterLeave(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	cc, err := dialCluster(h.fab.dialer("client"), h.addr("n1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	old := cc.Map()

	if err := h.node("n3").Leave(); err != nil {
		t.Fatal(err)
	}
	cur := h.node("n1").Map()
	if cur.Has("n3") {
		t.Fatalf("n3 still in the map after its LEAVE (%s)", cur.Encode())
	}
	staleClientRun(t, cc, old, cur)
}

// TestClusterClientFailsOverOnDeadOwner crashes a key's primary after
// an operator LEAVE has made the survivors' map current: the client —
// still holding the old map — must fail over on the transport error,
// refetch, and converge on the surviving replica.
func TestClusterClientFailsOverOnDeadOwner(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	cc, err := dialCluster(h.fab.dialer("client"), h.addr("n1"), h.addr("n2"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.minRefetch = time.Millisecond

	// A key whose primary is n3 — the node we will crash.
	m := h.node("n1").Map()
	key := findKeyWhere(t, m, func(ids []string) bool { return ids[0] == "n3" })
	if _, err := cc.Add(key, "x"); err != nil {
		t.Fatal(err)
	}

	// Crash n3, then evict it through a survivor (an operator LEAVE,
	// survivors re-replicate). The client still routes by the old map.
	h.crash("n3")
	c := h.dial(h.addr("n1"))
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
	if cur := cc.Map(); slices.Contains(ownerIDs(cur, key), "n3") {
		t.Error("client map still names the evicted node as an owner")
	}
}

// TestClusterClientFailoverBudget: with every node unreachable — each
// request the client sends, map refetches included, fails in transport —
// one op tries the key's owners 1+failoverBudget times, takes
// failoverBudget failovers, and fails: a dead cluster is an error, not a
// livelock.
func TestClusterClientFailoverBudget(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	cc, err := dialCluster(h.fab.dialer("client"), h.addr("n1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.minRefetch = time.Millisecond
	var tries atomic.Int64
	h.fab.setIntercept(func(from, _ string, parts []string) error {
		if from != "client" {
			return nil
		}
		if parts[0] == "PFCOUNT" {
			tries.Add(1)
		}
		return errors.New("test: the cluster is unreachable")
	})

	if got, err := cc.Count("k"); err == nil || server.IsReplyErr(err) {
		t.Fatalf("Count on a dead cluster = %d, %v; want a transport error", got, err)
	}
	if got := tries.Load(); got != 1+failoverBudget {
		t.Errorf("the op was sent %d times, want %d", got, 1+failoverBudget)
	}
	if s := cc.Stats(); s.Failovers != failoverBudget {
		t.Errorf("client stats = %+v, want %d failovers", s, failoverBudget)
	}
}

// TestClusterClientMidRebalanceChaos: 64 hot keys under concurrent
// load, 16 adds a round per worker, while a join moves keys.
// Every op must succeed (any error fails the test), and no write may be
// lost.
func TestClusterClientMidRebalanceChaos(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 3, replicas: 2})
	cc, err := dialCluster(h.fab.dialer("client"), h.addr("n1"), h.addr("n2"), h.addr("n3"))
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
				els := make([]string, 16)
				for j := 0; j < 16; j++ {
					els[j] = fmt.Sprintf("el-%d-%d-%d", w, i, j)
					if _, err := cc.Add(key(w*16+i*16+j), els[j]); err != nil {
						errCh <- fmt.Errorf("op %s: %w", key(w*16+i*16+j), err)
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

	// Mid-load: a 4th node joins — a map change, placement change, delta
	// rebalance — while the client keeps hammering the hot keys.
	time.Sleep(10 * time.Millisecond)
	n4 := h.start("n4")
	if err := n4.Join(h.addr("n1")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond) // load keeps running against the settled map
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("an op failed mid-rebalance: %v", err)
	default:
	}

	// No lost writes: every hot key matches its reference sketch.
	for i := 0; i < hotKeys; i++ {
		got, err := h.node("n1").Count(key(i))
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
