package cluster

import (
	"fmt"
	"strings"
	"testing"
)

// TestClusterStatsReportsCounters: CLUSTER STATS returns the node's own
// counter row plus the per-verb serving stats, and CLUSTER STATS ALL
// fans out to every member — with the poll itself visible in the
// batcher/verb counters it reports.
func TestClusterStatsReportsCounters(t *testing.T) {
	h := newHarness(t, 3, 2)
	for k := 0; k < 20; k++ {
		if _, err := h.node("n1").Add(fmt.Sprintf("st-%d", k), "a", "b"); err != nil {
			t.Fatal(err)
		}
	}
	h.tick(2)

	reply, err := h.do("n2", "CLUSTER", "STATS")
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(reply, "; ")
	if !strings.HasPrefix(rows[0], "node=n2 gossip_rounds=") {
		t.Fatalf("CLUSTER STATS first row %q, want the n2 counter row", rows[0])
	}
	if !strings.Contains(rows[0], "mlpfadd_groups=") || !strings.Contains(rows[0], "auto_leaves=0") {
		t.Errorf("counter row %q lacks batcher/eviction counters", rows[0])
	}
	if !strings.Contains(rows[0], "xfer_streams=") || !strings.Contains(rows[0], "xfer_frames=") {
		t.Errorf("counter row %q lacks the bulk-transfer counters", rows[0])
	}
	if !strings.Contains(reply, "uptime_ms=") {
		t.Errorf("CLUSTER STATS %q lacks the serving summary row", reply)
	}

	all, err := h.do("n1", "CLUSTER", "STATS", "ALL")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"n1", "n2", "n3"} {
		if !strings.Contains(all, "node="+id+" ") {
			t.Errorf("CLUSTER STATS ALL lacks the row for %s", id)
		}
	}
	if _, err := h.do("n1", "CLUSTER", "STATS", "BOGUS"); err == nil {
		t.Error("CLUSTER STATS BOGUS accepted")
	}

	// The gossip rounds driven above are visible.
	c := h.node("n2").StatsCounters()
	if c.GossipRounds == 0 {
		t.Error("gossip_rounds = 0 after ticking the fake clock")
	}
	if c.SuspectsRaised != 0 || c.AutoLeaves != 0 {
		t.Errorf("healthy cluster raised %d suspects / %d auto-leaves", c.SuspectsRaised, c.AutoLeaves)
	}
}

// TestMapRefetchesIsTheClientSignal: map_refetches counts CLUSTER MAP
// replies, documented as what smart clients do after a -MOVED. On a
// converged cluster the nodes' own anti-entropy must leave it alone —
// a periodic map pull between peers once added members−1 to it per
// tick, drowning the signal.
func TestMapRefetchesIsTheClientSignal(t *testing.T) {
	h := newHarness(t, 3, 2)
	for k := 0; k < 20; k++ {
		if _, err := h.node("n1").Add(fmt.Sprintf("rf-%d", k), "a", "b"); err != nil {
			t.Fatal(err)
		}
	}
	// Join pulls the seed's map once per joiner; start from there.
	before := map[string]uint64{}
	for _, n := range h.running() {
		before[n.ID()] = n.StatsCounters().MapRefetches
	}
	for round := 0; round < 10; round++ {
		h.tick(1)
		for _, n := range h.running() {
			if err := n.DigestSync(); err != nil {
				t.Fatalf("%s digest round: %v", n.ID(), err)
			}
		}
	}
	for _, n := range h.running() {
		if got := n.StatsCounters().MapRefetches - before[n.ID()]; got != 0 {
			t.Errorf("%s: map_refetches rose by %d over 10 gossip + digest rounds with no client, want 0", n.ID(), got)
		}
	}
	// The one thing that moves it: someone asking for the map.
	if _, err := h.do("n2", "CLUSTER", "MAP"); err != nil {
		t.Fatal(err)
	}
	if got := h.node("n2").StatsCounters().MapRefetches - before["n2"]; got != 1 {
		t.Errorf("n2: map_refetches rose by %d after one CLUSTER MAP, want 1", got)
	}
}

// TestMetricsPollingCountsAsLiveness: CLUSTER STATS round trips run
// through the peer pool, whose alive callback feeds the failure
// detector (markAlive) — so a peer whose gossip digests are all lost
// but which keeps answering metrics polls must never be suspected.
// The control half proves the same silence WITHOUT polls does raise
// suspicion, so the test cannot pass vacuously.
func TestMetricsPollingCountsAsLiveness(t *testing.T) {
	// Gossip digests are blackholed in both directions; every other
	// cluster command (JOIN, SETMAP, STATS, ...) flows normally.
	dropGossip := func(addr string, parts []string) error {
		if len(parts) >= 2 && strings.EqualFold(parts[0], "CLUSTER") && strings.EqualFold(parts[1], "GOSSIP") {
			return fmt.Errorf("test: gossip digest blackholed")
		}
		return nil
	}
	boot := func(id string) *Node {
		t.Helper()
		n, err := NewNode(id, testConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		n.setFaultHook(dropGossip)
		n.SetGossipConfig(GossipConfig{Fanout: 2, SuspectAfter: testSuspectAfter})
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	suspected := func(n *Node, peer string) bool {
		t.Helper()
		_, members := n.Health()
		for _, mh := range members {
			if mh.ID == peer {
				return mh.Suspect
			}
		}
		t.Fatalf("%s not in %s's health view", peer, n.ID())
		return false
	}

	// Control: digests lost, no other traffic → suspicion after the window.
	a := boot("a1")
	b := boot("b1")
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < testSuspectAfter+1; r++ {
		a.Gossip()
		b.Gossip()
	}
	if !suspected(a, "b1") {
		t.Fatal("control: digest-silent peer was never suspected — the polling half below proves nothing")
	}
	if c := a.StatsCounters(); c.SuspectsRaised == 0 {
		t.Error("control: suspects_raised counter did not move on an alive→suspect transition")
	}

	// Same silence, but now a polls b's CLUSTER STATS through its peer
	// pool every round — transport-level proof of life.
	c := boot("c1")
	d := boot("d1")
	if err := d.Join(c.Addr()); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < testSuspectAfter+3; r++ {
		if _, err := c.peers.do(d.Addr(), "CLUSTER", "STATS"); err != nil {
			t.Fatalf("round %d: metrics poll: %v", r, err)
		}
		c.Gossip()
		d.Gossip()
	}
	if suspected(c, "d1") {
		t.Error("metrics-polled peer was suspected despite answering every poll")
	}
	if cs := c.StatsCounters(); cs.SuspectsRaised != 0 {
		t.Errorf("polling node raised %d suspects, want 0", cs.SuspectsRaised)
	}
	if !c.Map().Has("d1") {
		t.Error("polled peer fell off the map")
	}
}
