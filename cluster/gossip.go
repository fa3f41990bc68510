package cluster

// Gossip-based failure detection with epoch-fenced auto-LEAVE.
//
// Each node keeps a heartbeat counter it increments once per gossip
// round and a per-peer record of the highest heartbeat it has seen and
// when (in rounds of its own logical clock) that evidence last
// advanced. One round — Node.Gossip — pushes a digest (node id →
// heartbeat, plus a piggybacked suspicion bit and the sender's map
// ordering triple) to a few peers chosen round-robin, and processes the
// digest each peer sends back, so liveness information spreads
// epidemically in O(log N) rounds. The triples heal maps: a pusher whose
// reply shows a newer one pulls that peer's map (CLUSTER MAP), one that
// shows an older one gets a targeted CLUSTER SETMAP. No map rides a digest.
//
// A peer whose evidence has not advanced for suspectAfter rounds
// becomes SUSPECT locally; the suspicion bit travels with every digest,
// so suspicions accumulate per node across the cluster. Only when this
// node itself suspects a peer AND a quorum (majority of the current
// map, counting this node) is known to agree does it coordinate an
// auto-LEAVE — which goes through the same epoch claim as an operator
// LEAVE, so eviction obeys the (Epoch, Version, Coordinator) order and
// a minority partition can never evict the majority: its suspicion
// count cannot reach quorum (it cannot hear the other suspecters), and
// even a bug that tried would fail the epoch claim.
//
// Time is logical: nothing in this file reads a wall clock. The driver
// — elld's -gossip-interval ticker in production, the test harness's
// fake clock in chaos tests — advances it by calling Gossip, which is
// what makes every failure-detection test deterministic.

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"exaloglog/server"
)

// suspectAfter is how many rounds a peer's heartbeat may stall before
// this node suspects it. With an interval of I the detection latency is
// roughly (suspectAfter+2)·I: the timeout plus a round or two for
// suspicions to meet quorum.
const suspectAfter = 5

// gossipFanout is how many peers one Gossip round pushes a digest to.
const gossipFanout = 2

// peerState is this node's evidence about one cluster member.
type peerState struct {
	hb          uint64          // highest heartbeat counter seen
	lastAlive   uint64          // local round when evidence last advanced
	suspectedBy map[string]bool // member ids currently asserting suspicion
}

// gossipState is the detector state machine; it has its own lock,
// taken strictly after (never around) node-level locks.
type gossipState struct {
	mu           sync.Mutex
	suspectAfter int    // the const suspectAfter, or fewer rounds in a test
	round        uint64 // local logical clock, advanced only by Gossip
	selfHB       uint64 // own heartbeat counter
	peers        map[string]*peerState
	cursor       int // round-robin position for fanout target selection

	// suspectsRaised counts alive→suspect transitions in this node's
	// own judgment (re-asserting an existing suspicion does not count)
	// — the CLUSTER STATS suspects_raised counter.
	suspectsRaised uint64
}

// markAlive is direct liveness evidence from transport level: any
// successful reply from addr proves the peer behind it is up. The pool
// calls it on every completed command, so a cluster under steady
// traffic never false-suspects a responsive peer even if its gossip
// digests are delayed.
func (n *Node) markAlive(addr string) {
	id := n.currentMap().IDByAddr(addr)
	if id == "" || id == n.id {
		return
	}
	g := &n.gsp
	g.mu.Lock()
	if st, ok := g.peers[id]; ok {
		st.lastAlive = g.round
		delete(st.suspectedBy, n.id)
	}
	g.mu.Unlock()
}

// Gossip runs one failure-detection round: advance the logical clock
// and own heartbeat, time out silent peers into SUSPECT, exchange
// digests with gossipFanout round-robin peers, and coordinate an epoch-fenced
// auto-LEAVE for any peer this node suspects once a quorum of members
// is known to agree. It returns the ids it evicted this round (usually
// none). Unreachable gossip targets are simply skipped — that silence
// is itself the signal the detector feeds on.
func (n *Node) Gossip() []string {
	g := &n.gsp
	m := n.currentMap()
	members := m.Members()

	g.mu.Lock()
	g.round++
	g.selfHB++
	// Reconcile detector state with the current map: new members get a
	// fresh grace period (lastAlive = now), departed members are
	// forgotten so their state cannot leak into a later rejoin.
	for _, mem := range members {
		if mem.ID == n.id {
			continue
		}
		if _, ok := g.peers[mem.ID]; !ok {
			g.peers[mem.ID] = &peerState{lastAlive: g.round, suspectedBy: make(map[string]bool)}
		}
	}
	for id := range g.peers {
		if !m.Has(id) {
			delete(g.peers, id)
		}
	}
	// Timeout: a peer whose evidence stalled for suspectAfter rounds is
	// suspect in this node's own judgment.
	for _, st := range g.peers {
		if g.round-st.lastAlive >= uint64(g.suspectAfter) && !st.suspectedBy[n.id] {
			st.suspectedBy[n.id] = true
			g.suspectsRaised++
		}
	}
	digest := n.digestLocked(m).encode()
	targets := n.pickTargetsLocked(members)
	g.mu.Unlock()

	// Push-pull exchange. Each reply carries the target's digest, which
	// may deliver the suspicion bits that complete a quorum below, and the
	// target's map triple, which says who of the two is behind.
	payload := append([]string{"CLUSTER", "GOSSIP"}, strings.Fields(digest)...)
	for _, addr := range targets {
		reply, err := n.peers.do(addr, payload...)
		if err != nil {
			continue // silent peer: the timeout above is the accounting
		}
		d, err := decodeDigest(strings.Fields(reply))
		if err != nil {
			continue
		}
		n.processDigest(d)
		// Both best-effort: a failed heal retries on the next exchange.
		switch cur := n.currentMap(); {
		case cur.triple().after(d.triple()):
			// The replier is behind our map: push it now, one targeted
			// SETMAP, instead of leaving the laggard to discover it.
			n.peers.do(addr, setmapCommand(cur)...)
		case d.triple().after(cur.triple()):
			// The replier is ahead: pull its map from that one peer.
			n.reconcileMap(addr)
		}
	}

	// Eviction: only for peers this node independently suspects, and
	// only once a majority of the current map is known to agree. The
	// LEAVE itself is epoch-fenced, so this can never outrun a quorum.
	quorum := m.Len()/2 + 1
	var candidates []string
	g.mu.Lock()
	for id, st := range g.peers {
		if !st.suspectedBy[n.id] {
			continue
		}
		// Count only suspicion from CURRENT members: a bit asserted by
		// a node that has since left the map is stale hearsay, and
		// counting it could let fewer than a live majority evict.
		agreeing := 0
		for suspector := range st.suspectedBy {
			if m.Has(suspector) {
				agreeing++
			}
		}
		if agreeing >= quorum {
			candidates = append(candidates, id)
		}
	}
	g.mu.Unlock()
	sort.Strings(candidates)
	var evicted []string
	for _, id := range candidates {
		if !n.currentMap().Has(id) {
			continue // a rival detector beat us to it
		}
		if reply := n.coordinateLeave(id); strings.HasPrefix(reply, "+OK") {
			n.autoLeaves.Add(1)
			evicted = append(evicted, id)
		}
	}
	return evicted
}

// digestLocked fills this node's current digest; g.mu held.
func (n *Node) digestLocked(m *Map) *digest {
	g := &n.gsp
	d := &digest{Sender: n.id, Epoch: m.Epoch, Version: m.Version, Coordinator: m.Coordinator}
	for _, mem := range m.Members() {
		if mem.ID == n.id {
			d.Entries = append(d.Entries, digestEntry{ID: mem.ID, HB: g.selfHB})
		} else if st := g.peers[mem.ID]; st != nil {
			d.Entries = append(d.Entries, digestEntry{ID: mem.ID, HB: st.hb, Suspect: st.suspectedBy[n.id]})
		}
	}
	return d
}

// pickTargetsLocked chooses up to gossipFanout peer addresses round-robin
// over the sorted member list — deterministic, and over enough rounds
// every peer is contacted equally often. g.mu held.
func (n *Node) pickTargetsLocked(members []Member) []string {
	g := &n.gsp
	var others []Member
	for _, mem := range members {
		if mem.ID != n.id {
			others = append(others, mem)
		}
	}
	if len(others) == 0 {
		return nil
	}
	k := min(gossipFanout, len(others))
	out := make([]string, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, others[(g.cursor+i)%len(others)].Addr)
	}
	g.cursor = (g.cursor + k) % len(others)
	return out
}

// processDigest folds one received digest into the detector state:
// direct contact with the sender, heartbeat advances (which refute all
// outstanding suspicion of that peer), and the sender's suspicion bits.
// The map triple the digest carries is the callers' business (Gossip,
// handleGossip): detector state never moves maps.
func (n *Node) processDigest(d *digest) {
	m := n.currentMap()
	g := &n.gsp
	g.mu.Lock()
	defer g.mu.Unlock()
	senderIsMember := m.Has(d.Sender)
	if st, ok := g.peers[d.Sender]; ok {
		// Hearing from the sender at all is as good as a heartbeat.
		st.lastAlive = g.round
		delete(st.suspectedBy, n.id)
	}
	for _, e := range d.Entries {
		if e.ID == n.id {
			continue // our own liveness is not in question here
		}
		st, ok := g.peers[e.ID]
		if !ok {
			continue // not in our map (yet); the triple's heal will bring it
		}
		if e.HB > st.hb {
			st.hb = e.HB
			st.lastAlive = g.round
			// Fresh evidence of life refutes every outstanding
			// suspicion; peers that still disagree will re-assert.
			st.suspectedBy = make(map[string]bool)
		}
		// Suspicion is a member's privilege: a digest from a node not on
		// our map (evicted, or ahead of a membership change we haven't
		// learned) may still prove ITS liveness, but its opinion of
		// others must not count toward an eviction quorum.
		if !senderIsMember {
			continue
		}
		if e.Suspect {
			st.suspectedBy[d.Sender] = true
		} else {
			delete(st.suspectedBy, d.Sender)
		}
	}
}

// handleGossip is the CLUSTER GOSSIP wire handler: fold the pushed
// digest in and reply with ours (push-pull), so one round trip moves
// information both ways. Maps are the pusher's business: our reply carries
// our triple, and a pusher behind it pulls our map, one ahead of it pushes
// its own.
func (n *Node) handleGossip(reply []byte, args [][]byte) []byte {
	d, err := decodeDigest(server.StringArgs(args))
	if err != nil {
		return append(reply, "-ERR "+err.Error()...)
	}
	n.processDigest(d)
	m := n.currentMap()
	n.gsp.mu.Lock()
	ours := n.digestLocked(m).encode()
	n.gsp.mu.Unlock()
	return append(append(reply, '+'), ours...)
}

// MemberHealth is one member's state as seen by this node's detector.
type MemberHealth struct {
	ID         string
	Self       bool
	Suspect    bool   // this node's own judgment
	HB         uint64 // highest heartbeat seen (own counter for Self)
	SinceHeard uint64 // rounds since evidence last advanced (0 for Self)
	Suspectors int    // members known to currently suspect this one
}

// Health reports the detector's view of every current member, sorted
// by ID, plus the local round counter. A node evicted from its own map
// reports only itself, un-membered.
func (n *Node) Health() (round uint64, members []MemberHealth) {
	m := n.currentMap()
	g := &n.gsp
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, mem := range m.Members() {
		if mem.ID == n.id {
			members = append(members, MemberHealth{ID: n.id, Self: true, HB: g.selfHB})
			continue
		}
		st := g.peers[mem.ID]
		if st == nil {
			members = append(members, MemberHealth{ID: mem.ID})
			continue
		}
		members = append(members, MemberHealth{
			ID:         mem.ID,
			Suspect:    st.suspectedBy[n.id],
			HB:         st.hb,
			SinceHeard: g.round - st.lastAlive,
			Suspectors: len(st.suspectedBy),
		})
	}
	return g.round, members
}

// handleHealth renders Health for the CLUSTER HEALTH verb:
//
//	+round=<r> quorum=<q> member=<bool> <id>=<alive|suspect|self>,hb=<n>,heard=<n>,sus=<n> ...
//
// Fields after a member's first '=' are comma-separated k=v pairs; the
// id itself may contain neither '=' nor whitespace (validID), so the
// first '=' is an unambiguous split point.
func (n *Node) handleHealth(reply []byte, _ [][]byte) []byte {
	round, members := n.Health()
	m := n.currentMap()
	reply = fmt.Appendf(reply, "+round=%d quorum=%d member=%t", round, m.Len()/2+1, m.Has(n.id))
	for _, mh := range members {
		state := "alive"
		switch {
		case mh.Self:
			state = "self"
		case mh.Suspect:
			state = "suspect"
		}
		reply = fmt.Appendf(reply, " %s=%s,hb=%d,heard=%d,sus=%d", mh.ID, state, mh.HB, mh.SinceHeard, mh.Suspectors)
	}
	return reply
}

// --- wire format -------------------------------------------------------

// gossipWireTag versions the digest payload, like mapWireTag for maps.
const gossipWireTag = "g1"

// suspectMark is appended to a digest entry's heartbeat when the sender
// currently suspects that member. '!' cannot appear inside the decimal
// heartbeat, so the entry stays unambiguous.
const suspectMark = "!"

// digestEntry is one member's row in a gossip digest.
type digestEntry struct {
	ID      string
	HB      uint64
	Suspect bool
}

// digest is the decoded CLUSTER GOSSIP payload:
//
//	g1 <sender> <epoch> <version> <coordinator|-> <id>=<hb>[!] ...
//
// The (epoch, version, coordinator) triple is the sender's map
// ordering, enough for the receiver to know whether it is behind; the
// map itself never rides a digest.
type digest struct {
	Sender      string
	Epoch       uint64
	Version     uint64
	Coordinator string
	Entries     []digestEntry
}

func (d *digest) triple() triple { return triple{d.Epoch, d.Version, d.Coordinator} }

// decodeDigest parses the gossip payload strictly: like DecodeMap it
// must reject (never panic on, never over-allocate for) a corrupt or
// hostile payload — see FuzzGossipDecode. Size caps are shared with the
// map codec: at most maxWireMembers entries and maxWireBytes total.
func decodeDigest(tokens []string) (*digest, error) {
	if len(tokens) < 5 {
		return nil, fmt.Errorf("cluster: gossip digest needs tag, sender, epoch, version and coordinator, got %d tokens", len(tokens))
	}
	total := len(tokens)
	for _, tok := range tokens {
		total += len(tok)
	}
	if total > maxWireBytes {
		return nil, fmt.Errorf("cluster: gossip digest is %d bytes (limit %d)", total, maxWireBytes)
	}
	if tokens[0] != gossipWireTag {
		return nil, fmt.Errorf("cluster: unsupported gossip payload tag %q (want %s)", tokens[0], gossipWireTag)
	}
	if !validID(tokens[1]) {
		return nil, fmt.Errorf("cluster: bad gossip sender %q", tokens[1])
	}
	t, err := readTriple(tokens[2], tokens[3], tokens[4])
	if err != nil {
		return nil, fmt.Errorf("cluster: gossip digest: %w", err)
	}
	entryTokens := tokens[5:]
	if len(entryTokens) > maxWireMembers {
		return nil, fmt.Errorf("cluster: gossip digest claims %d entries (limit %d)", len(entryTokens), maxWireMembers)
	}
	d := &digest{
		Sender:      tokens[1],
		Epoch:       t.epoch,
		Version:     t.version,
		Coordinator: t.coordinator,
		Entries:     make([]digestEntry, 0, len(entryTokens)),
	}
	seen := make(map[string]bool, len(entryTokens))
	for _, tok := range entryTokens {
		id, hbs, ok := strings.Cut(tok, "=")
		if !ok || !validID(id) {
			return nil, fmt.Errorf("cluster: bad gossip entry %q", tok)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate gossip entry %q", id)
		}
		seen[id] = true
		suspect := strings.HasSuffix(hbs, suspectMark)
		if suspect {
			hbs = strings.TrimSuffix(hbs, suspectMark)
		}
		hb, err := strconv.ParseUint(hbs, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad gossip heartbeat in %q", tok)
		}
		d.Entries = append(d.Entries, digestEntry{ID: id, HB: hb, Suspect: suspect})
	}
	return d, nil
}

// encode renders the digest in its wire form, the inverse of
// decodeDigest: what Gossip pushes and handleGossip replies.
func (d *digest) encode() string {
	parts := make([]string, 0, 5+len(d.Entries))
	parts = append(parts, gossipWireTag, d.Sender,
		strconv.FormatUint(d.Epoch, 10),
		strconv.FormatUint(d.Version, 10),
		cmp.Or(d.Coordinator, noCoordinator))
	for _, e := range d.Entries {
		tok := e.ID + "=" + strconv.FormatUint(e.HB, 10)
		if e.Suspect {
			tok += suspectMark
		}
		parts = append(parts, tok)
	}
	return strings.Join(parts, " ")
}
