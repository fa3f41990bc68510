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
// epidemically in O(log N) rounds.
//
// A peer whose evidence has not advanced for SuspectAfter rounds
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
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// GossipConfig tunes the failure detector. The zero value is replaced
// by defaults (Fanout 2, SuspectAfter 5) in NewNode.
type GossipConfig struct {
	// Fanout is how many peers one Gossip round pushes a digest to.
	Fanout int
	// SuspectAfter is how many rounds a peer's heartbeat may stall
	// before this node suspects it. With an interval of I the detection
	// latency is roughly (SuspectAfter+2)·I: the timeout plus a round
	// or two for suspicions to meet quorum.
	SuspectAfter int
}

const (
	defaultFanout       = 2
	defaultSuspectAfter = 5
)

// peerState is this node's evidence about one cluster member.
type peerState struct {
	hb          uint64          // highest heartbeat counter seen
	lastAlive   uint64          // local round when evidence last advanced
	suspectedBy map[string]bool // member ids currently asserting suspicion
}

// gossipState is the detector state machine; it has its own lock,
// taken strictly after (never around) node-level locks.
type gossipState struct {
	mu     sync.Mutex
	cfg    GossipConfig
	round  uint64 // local logical clock, advanced only by Gossip
	selfHB uint64 // own heartbeat counter
	peers  map[string]*peerState
	cursor int // round-robin position for fanout target selection

	// suspectsRaised counts alive→suspect transitions in this node's
	// own judgment (re-asserting an existing suspicion does not count)
	// — the CLUSTER STATS suspects_raised counter.
	suspectsRaised uint64

	// evictedAt records auto-evictions (id → epoch of the eviction
	// map), so a JOIN that brings the node back can tell it what
	// happened. Records are seeded on the evicting coordinator and
	// piggybacked on gossip digests ("~id=epoch" tokens), so ANY member
	// — not just the coordinator — can deliver the rejoin feedback no
	// matter which node the returning member joins through. A record is
	// consumed by the member that delivers it and garbage-collected
	// everywhere else as soon as the evicted id is back on the map.
	// Nodes that never rejoin cannot grow this without bound: the set
	// is capped at maxEvictionRecords, evicting the lowest-epoch
	// (oldest) record first.
	evictedAt map[string]uint64
}

// maxEvictionRecords bounds the remembered auto-evictions per node —
// and with them the "~id=epoch" tokens per digest. Decommissioned
// nodes never rejoin to consume their record, so without a cap a
// churny fleet would accrete digest weight forever. When the cap is
// hit, the record of the OLDEST eviction (lowest epoch, id tie-break)
// makes way: the feedback is best-effort operator courtesy, and the
// recent evictions are the ones someone is likely to rejoin.
const maxEvictionRecords = 64

// recordEvictionLocked inserts or refreshes an eviction record,
// enforcing the size cap; g.mu held.
func (g *gossipState) recordEvictionLocked(id string, epoch uint64) {
	if cur, ok := g.evictedAt[id]; ok {
		if epoch > cur {
			g.evictedAt[id] = epoch
		}
		return
	}
	if len(g.evictedAt) >= maxEvictionRecords {
		victim, victimEpoch := "", uint64(0)
		for vid, ve := range g.evictedAt {
			if victim == "" || ve < victimEpoch || (ve == victimEpoch && vid < victim) {
				victim, victimEpoch = vid, ve
			}
		}
		if victimEpoch >= epoch {
			return // the incoming record is the oldest of them all: drop it instead
		}
		delete(g.evictedAt, victim)
	}
	g.evictedAt[id] = epoch
}

// SetGossipConfig overrides the failure-detector tuning. Call before
// the node starts gossiping; zero fields keep their defaults.
func (n *Node) SetGossipConfig(cfg GossipConfig) {
	n.gsp.mu.Lock()
	defer n.gsp.mu.Unlock()
	if cfg.Fanout > 0 {
		n.gsp.cfg.Fanout = cfg.Fanout
	}
	if cfg.SuspectAfter > 0 {
		n.gsp.cfg.SuspectAfter = cfg.SuspectAfter
	}
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
// digests with Fanout round-robin peers, and coordinate an epoch-fenced
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
	// An eviction record for a node that is back on the map has been
	// delivered (the JOIN path consumes it on whichever member
	// coordinated the rejoin): forget it everywhere else, so a later
	// unrelated JOIN cannot re-deliver stale feedback.
	for id := range g.evictedAt {
		if m.Has(id) {
			delete(g.evictedAt, id)
		}
	}
	// Timeout: a peer whose evidence stalled for SuspectAfter rounds is
	// suspect in this node's own judgment.
	for _, st := range g.peers {
		if g.round-st.lastAlive >= uint64(g.cfg.SuspectAfter) && !st.suspectedBy[n.id] {
			st.suspectedBy[n.id] = true
			g.suspectsRaised++
		}
	}
	digest := n.buildDigestLocked(m)
	targets := n.pickTargetsLocked(members)
	g.mu.Unlock()

	// Push-pull exchange. Each reply carries the target's digest, which
	// may deliver the suspicion bits that complete a quorum below — and,
	// when the target's map supersedes ours, the full map piggybacked as
	// an "@map" payload, healing us in the same round trip.
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
		n.installDigestMap(d)
		n.processDigest(d)
		// Both best-effort: a failed heal retries on the next exchange.
		switch cur := n.currentMap(); {
		case tripleBehind(cur, d.Epoch, d.Version, d.Coordinator):
			// The replier is behind our map: push it now, one targeted
			// SETMAP, instead of leaving the laggard to discover it.
			n.peers.direct(addr, setmapCommand(cur)...)
		case cur.SupersededByTriple(d.Epoch, d.Version, d.Coordinator):
			// The replier is still ahead, so its map did not fit the
			// reply (size-capped): pull it from that one peer.
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
		if reply := n.handleLeave(id); strings.HasPrefix(reply, "+OK") {
			epoch := n.currentMap().Epoch
			g.mu.Lock()
			g.recordEvictionLocked(id, epoch)
			g.mu.Unlock()
			n.autoLeaves.Add(1)
			evicted = append(evicted, id)
		}
	}
	return evicted
}

// buildDigestLocked renders this node's current digest; g.mu held.
func (n *Node) buildDigestLocked(m *Map) string {
	g := &n.gsp
	coord := m.Coordinator
	if coord == "" {
		coord = noCoordinator
	}
	parts := make([]string, 0, 5+m.Len()+len(g.evictedAt))
	parts = append(parts, gossipWireTag, n.id,
		strconv.FormatUint(m.Epoch, 10),
		strconv.FormatUint(m.Version, 10),
		coord)
	for _, mem := range m.Members() {
		if mem.ID == n.id {
			parts = append(parts, mem.ID+"="+strconv.FormatUint(g.selfHB, 10))
			continue
		}
		st := g.peers[mem.ID]
		if st == nil {
			continue
		}
		tok := mem.ID + "=" + strconv.FormatUint(st.hb, 10)
		if st.suspectedBy[n.id] {
			tok += suspectMark
		}
		parts = append(parts, tok)
	}
	// Piggyback the eviction records, sorted for determinism. An old
	// (pre-record) decoder reads "~id=epoch" as a heartbeat entry for
	// the unknown member "~id" and skips it — tolerated, not misread.
	if len(g.evictedAt) > 0 {
		ids := make([]string, 0, len(g.evictedAt))
		for id := range g.evictedAt {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			parts = append(parts, evictionMark+id+"="+strconv.FormatUint(g.evictedAt[id], 10))
		}
	}
	return strings.Join(parts, " ")
}

// pickTargetsLocked chooses up to Fanout peer addresses round-robin
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
	k := g.cfg.Fanout
	if k > len(others) {
		k = len(others)
	}
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
			continue // not in our map (yet); the @map heal will bring it
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
	// Eviction records spread like the suspicion bits — member-only, so
	// a node evicted from the map cannot plant history. A record about a
	// node currently ON our map is stale (it already rejoined); a later
	// eviction at a higher epoch supersedes an older record.
	if senderIsMember {
		for _, r := range d.Evictions {
			if r.ID == n.id || m.Has(r.ID) {
				continue
			}
			g.recordEvictionLocked(r.ID, r.Epoch)
		}
	}
}

// installDigestMap installs a full map piggybacked on a gossip digest
// (no-op without a payload, or when the payload is not newer). It runs
// OUTSIDE g.mu — installing runs a digest round. Best-effort: what a
// failed round left behind the next one moves, as everywhere else.
func (n *Node) installDigestMap(d *digest) {
	if d.MapPayload == nil || !d.MapPayload.Newer(n.currentMap()) {
		return
	}
	n.installAndSync(d.MapPayload)
}

// tripleBehind reports whether the ordering triple (epoch, version,
// coordinator) is strictly OLDER than m — i.e. whoever sent it needs m.
func tripleBehind(m *Map, epoch, version uint64, coordinator string) bool {
	if m.SupersededByTriple(epoch, version, coordinator) {
		return false // the triple is ahead of m (or incomparable-newer)
	}
	return m.Epoch != epoch || m.Version != version || m.Coordinator != coordinator
}

// handleGossip is the CLUSTER GOSSIP wire handler: fold the pushed
// digest in and reply with ours (push-pull), so one round trip moves
// information both ways. When the pusher's map triple is strictly
// behind this node's, the reply additionally piggybacks the full map as
// an "@map" payload: the pusher heals in the same round trip. A pusher
// AHEAD of us needs nothing here — our reply carries our stale triple
// back and the pusher answers it with a targeted SETMAP.
func (n *Node) handleGossip(rest []string) string {
	d, err := decodeDigest(rest)
	if err != nil {
		return "-ERR " + err.Error()
	}
	n.installDigestMap(d)
	n.processDigest(d)
	m := n.currentMap()
	n.gsp.mu.Lock()
	reply := n.buildDigestLocked(m)
	n.gsp.mu.Unlock()
	if tripleBehind(m, d.Epoch, d.Version, d.Coordinator) {
		if enc := m.Encode(); len(reply)+len(mapMark)+len(enc)+2 <= maxWireBytes {
			reply += " " + mapMark + " " + enc
		}
	}
	return "+" + reply
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
func (n *Node) handleHealth() string {
	round, members := n.Health()
	m := n.currentMap()
	parts := make([]string, 0, 3+len(members))
	parts = append(parts,
		"round="+strconv.FormatUint(round, 10),
		"quorum="+strconv.Itoa(m.Len()/2+1),
		"member="+strconv.FormatBool(m.Has(n.id)))
	for _, mh := range members {
		state := "alive"
		switch {
		case mh.Self:
			state = "self"
		case mh.Suspect:
			state = "suspect"
		}
		parts = append(parts, fmt.Sprintf("%s=%s,hb=%d,heard=%d,sus=%d",
			mh.ID, state, mh.HB, mh.SinceHeard, mh.Suspectors))
	}
	return "+" + strings.Join(parts, " ")
}

// --- wire format -------------------------------------------------------

// gossipWireTag versions the digest payload, like mapWireTag for maps.
const gossipWireTag = "g1"

// suspectMark is appended to a digest entry's heartbeat when the sender
// currently suspects that member. '!' cannot appear inside the decimal
// heartbeat, so the entry stays unambiguous.
const suspectMark = "!"

// evictionMark prefixes an eviction-record token ("~id=epoch"). A
// valid member id may itself start with '~', but such an id can never
// appear as an entry in the same digest as a record for it — records
// are only carried for ids OFF the map — and a pre-record decoder
// reads the token as an unknown member's heartbeat and skips it.
const evictionMark = "~"

// mapMark separates the digest's entry tokens from an optional
// piggybacked full-map payload: everything after it is a Map.Encode
// token stream. The marker contains no '=', so a pre-payload decoder
// errors on it (rejecting the digest) rather than misreading map tokens
// as heartbeat entries.
const mapMark = "@map"

// digestEntry is one member's row in a gossip digest.
type digestEntry struct {
	ID      string
	HB      uint64
	Suspect bool
}

// evictionRecord is one piggybacked auto-eviction fact: id was evicted
// by the map minted at Epoch and has not rejoined yet.
type evictionRecord struct {
	ID    string
	Epoch uint64
}

// digest is the decoded CLUSTER GOSSIP payload:
//
//	g1 <sender> <epoch> <version> <coordinator|-> <id>=<hb>[!] ... ~<id>=<epoch> ... [@map <v2 map tokens>]
//
// The (epoch, version, coordinator) triple is the sender's map
// ordering, enough for the receiver to know WHETHER it is behind. The
// trailing "~id=epoch" tokens are auto-eviction records (see
// gossipState). A gossip REPLY whose sender's map supersedes the
// pusher's additionally piggybacks the full map after an "@map" marker
// — the map delta rides the digest exchange itself, so a node that
// missed a broadcast heals in one round trip with no MAP pull.
type digest struct {
	Sender      string
	Epoch       uint64
	Version     uint64
	Coordinator string
	Entries     []digestEntry
	Evictions   []evictionRecord
	MapPayload  *Map // piggybacked full map (nil when absent)
}

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
	epoch, err := strconv.ParseUint(tokens[2], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad gossip epoch %q", tokens[2])
	}
	version, err := strconv.ParseUint(tokens[3], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad gossip version %q", tokens[3])
	}
	coordinator := tokens[4]
	if coordinator == noCoordinator {
		coordinator = ""
	} else if !validID(coordinator) {
		return nil, fmt.Errorf("cluster: bad gossip coordinator %q", tokens[4])
	}
	entryTokens := tokens[5:]
	var mapTokens []string
	if i := slices.Index(entryTokens, mapMark); i >= 0 {
		mapTokens = entryTokens[i+1:]
		entryTokens = entryTokens[:i]
	}
	if len(entryTokens) > maxWireMembers {
		return nil, fmt.Errorf("cluster: gossip digest claims %d entries (limit %d)", len(entryTokens), maxWireMembers)
	}
	d := &digest{
		Sender:      tokens[1],
		Epoch:       epoch,
		Version:     version,
		Coordinator: coordinator,
		Entries:     make([]digestEntry, 0, len(entryTokens)),
	}
	seen := make(map[string]bool, len(entryTokens))
	seenEv := map[string]bool{}
	for _, tok := range entryTokens {
		if rec, ok := strings.CutPrefix(tok, evictionMark); ok {
			id, es, ok := strings.Cut(rec, "=")
			if !ok || !validID(id) {
				return nil, fmt.Errorf("cluster: bad gossip eviction record %q", tok)
			}
			if seenEv[id] {
				return nil, fmt.Errorf("cluster: duplicate gossip eviction record %q", id)
			}
			seenEv[id] = true
			e, err := strconv.ParseUint(es, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: bad gossip eviction epoch in %q", tok)
			}
			d.Evictions = append(d.Evictions, evictionRecord{ID: id, Epoch: e})
			continue
		}
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
	if mapTokens != nil {
		m, err := DecodeMap(mapTokens)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad gossip map payload: %w", err)
		}
		d.MapPayload = m
	}
	return d, nil
}

// encode renders the digest back to its token form (the inverse of
// decodeDigest; used by tests to pin round-trip stability).
func (d *digest) encode() string {
	coord := d.Coordinator
	if coord == "" {
		coord = noCoordinator
	}
	parts := make([]string, 0, 5+len(d.Entries)+len(d.Evictions))
	parts = append(parts, gossipWireTag, d.Sender,
		strconv.FormatUint(d.Epoch, 10),
		strconv.FormatUint(d.Version, 10),
		coord)
	for _, e := range d.Entries {
		tok := e.ID + "=" + strconv.FormatUint(e.HB, 10)
		if e.Suspect {
			tok += suspectMark
		}
		parts = append(parts, tok)
	}
	for _, r := range d.Evictions {
		parts = append(parts, evictionMark+r.ID+"="+strconv.FormatUint(r.Epoch, 10))
	}
	if d.MapPayload != nil {
		parts = append(parts, mapMark)
		parts = append(parts, strings.Fields(d.MapPayload.Encode())...)
	}
	return strings.Join(parts, " ")
}
