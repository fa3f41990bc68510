package cluster

// Gossip-based failure detection with quorum-backed auto-LEAVE.
//
// Each node keeps a heartbeat counter it increments once per gossip
// round and a per-peer record of the highest heartbeat it has seen and
// when (in rounds of its own logical clock) that evidence last
// advanced. One round — Node.Gossip — pushes a digest (node id →
// heartbeat, plus a piggybacked suspicion bit and the digest of the
// sender's map) to a few peers chosen round-robin, and processes the
// digest each peer sends back, so liveness information spreads
// epidemically in O(log N) rounds. The map digests heal maps: a pusher
// whose reply shows another one pulls that peer's map (CLUSTER MAP), joins
// it, and pushes the join back with a targeted CLUSTER SETMAP if the peer
// lacks part of it. No map rides a digest.
//
// A peer whose evidence has not advanced for suspectAfter rounds
// becomes SUSPECT locally; the suspicion bit travels with every digest,
// so suspicions accumulate per node across the cluster. Only when this
// node itself suspects a peer AND a quorum (majority of the current
// map, counting this node) is known to agree does it coordinate an
// auto-LEAVE, the same change as an operator's LEAVE. So a minority
// partition never evicts the majority: its suspicion count cannot reach
// quorum, because it cannot hear the other suspecters.
//
// Time is logical: nothing in this file reads a wall clock. The driver
// — elld's -gossip-interval ticker in production, the test harness's
// fake clock in chaos tests — advances it by calling Gossip, which is
// what makes every failure-detection test deterministic.

import (
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
// digests with gossipFanout round-robin peers, and coordinate an
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
	// digest of the target's map, which says whether the maps differ.
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
		if d.MapDigest != n.currentMap().Digest() {
			n.reconcileMap(addr) // best-effort: a failed heal retries on the next exchange
		}
	}

	// Eviction: only for peers this node independently suspects, and
	// only once a majority of the current map is known to agree.
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
		_ = n.coordinateLeave(id) // its one error is ErrSync: the eviction stands
		n.autoLeaves.Add(1)
		evicted = append(evicted, id)
	}
	return evicted
}

// digestLocked fills this node's current digest; g.mu held.
func (n *Node) digestLocked(m *Map) *digest {
	g := &n.gsp
	d := &digest{Sender: n.id, MapDigest: m.Digest()}
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
// The map digest it carries is Gossip's business: detector state never
// moves maps.
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
			continue // not in our map (yet); the map digest's heal will bring it
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
// our map's digest, and a pusher whose map differs pulls ours, joins it and
// pushes the join back.
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
const gossipWireTag = "g2"

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
//	g2 <sender> <map digest in hex> <id>=<hb>[!] ...
//
// The map digest (Map.Digest) is enough for the receiver to know whether
// the two maps differ; the map itself never rides a digest.
type digest struct {
	Sender    string
	MapDigest uint64
	Entries   []digestEntry
}

// decodeDigest parses the gossip payload strictly: like DecodeMap it
// must reject (never panic on, never over-allocate for) a corrupt or
// hostile payload — see FuzzGossipDecode. Size caps are shared with the
// map codec: at most maxWireMembers entries and maxWireBytes total.
func decodeDigest(tokens []string) (*digest, error) {
	if len(tokens) < 3 {
		return nil, fmt.Errorf("cluster: gossip digest needs tag, sender and map digest, got %d tokens", len(tokens))
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
	md, err := strconv.ParseUint(tokens[2], 16, 64)
	if err != nil {
		return nil, fmt.Errorf("cluster: gossip digest: bad map digest %q", tokens[2])
	}
	entryTokens := tokens[3:]
	if len(entryTokens) > maxWireMembers {
		return nil, fmt.Errorf("cluster: gossip digest claims %d entries (limit %d)", len(entryTokens), maxWireMembers)
	}
	d := &digest{
		Sender:    tokens[1],
		MapDigest: md,
		Entries:   make([]digestEntry, 0, len(entryTokens)),
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
	parts := make([]string, 0, 3+len(d.Entries))
	parts = append(parts, gossipWireTag, d.Sender, fmt.Sprintf("%016x", d.MapDigest))
	for _, e := range d.Entries {
		tok := e.ID + "=" + strconv.FormatUint(e.HB, 10)
		if e.Suspect {
			tok += suspectMark
		}
		parts = append(parts, tok)
	}
	return strings.Join(parts, " ")
}
