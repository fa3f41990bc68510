// Package cluster turns the single-node server package into a sharded,
// replicated sketch cluster. A cluster map places every key on N owner
// nodes by rendezvous hashing; any node accepts any command, forwarding
// writes to the key's owners and answering distinct-count queries by
// scatter-gathering serialized sketches and merging them locally. Because
// ExaLogLog merging is commutative and idempotent (paper Section 1),
// replicas may be written redundantly and blobs re-sent at will —
// rebalancing after membership changes is just "push your copy to whoever
// owns it now". The map itself converges the same way: it is a state that
// nodes join, not one they agree on.
//
// Wire-wise the cluster layers CLUSTER subcommands onto the server line
// protocol and is the keyspace the server's data verbs (PFADD … KEYS) act
// on, so any existing client pointed at any node sees one logical store.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"exaloglog/internal/hashing"
)

// Member is one node of the cluster map.
type Member struct {
	ID   string
	Addr string
}

// Entry is one ID's record in a map: its address and its counter. An odd
// counter means the ID is in, an even one that it is out.
type Entry struct {
	Member
	Counter uint64
}

// In reports whether the entry's ID is a member.
func (e Entry) In() bool { return e.Counter%2 == 1 }

// Map is an immutable cluster membership state: every ID the cluster has
// known, with a counter and an address each, and how many replicas each
// key gets. It is a state-based CRDT (a causal-length set): JOIN moves an
// ID's counter to the next odd value (a re-address adds 2), LEAVE to the
// next even one, and two states join by taking, per ID, the higher counter
// — at equal counters the larger address. The join is commutative,
// associative and idempotent, so nodes that have seen the same changes
// hold the same map, in whatever order the changes reached them, and a
// change made on any node, on either side of a partition, converges
// everywhere. An ID that left stays recorded as out; that is how a join
// knows the LEAVE is newer than the JOIN it undoes.
//
// Nodes tell maps apart by Digest, a hash of the encoding, and exchange
// maps with CLUSTER SETMAP and CLUSTER MAP. Height, the sum of the
// counters, grows with every change, which gives the one-sided fences
// (XFER frames, the smart client's refetch) a number to compare. Treat a
// Map as read-only once built — derive changed maps with withNode,
// withoutNode and join.
type Map struct {
	Replicas int
	entries  []Entry           // every ID, sorted
	members  []placed          // the in IDs, sorted by ID
	byAddr   map[string]string // addr → id of the in IDs (reverse index, built once)
	height   uint64            // the sum of the counters
	enc      string            // Encode's form
	digest   uint64            // hashing.WyString(enc, digestSeed)
}

// placementSeed seeds the placement hashes of keys and members. It differs
// from the store's shard seed, so the keys one node owns spread over all of
// its shards.
const placementSeed = 0x2545f4914f6cdd1d

// digestSeed seeds a map's digest.
const digestSeed = 0x9e3779b97f4a7c15

// placed is a member with its placement hash.
type placed struct {
	Member
	hash uint64 // hashing.WyString(ID, placementSeed)
}

// ranked is a member with its score for one key. A key's owners are the
// Replicas members that rank highest for it (rendezvous, or
// highest-random-weight, hashing): a member that joins takes only the keys
// it outranks an owner on, and one that leaves gives up only its own.
type ranked struct {
	*placed
	score uint64
}

// rank scores p for the key whose placement hash is key.
func (p *placed) rank(key uint64) ranked { return ranked{p, hashing.Mix64(key ^ p.hash)} }

// beats reports whether r ranks ahead of q: a higher score, or an equal
// one and a smaller ID.
func (r ranked) beats(q ranked) bool {
	return r.score > q.score || r.score == q.score && r.ID < q.ID
}

// NewMap builds a map with the given replica factor whose members are in
// at counter 1; an ID given twice keeps the larger address, as a join
// would. Replicas is clamped to at least 1.
func NewMap(replicas int, members ...Member) *Map {
	entries := make([]Entry, len(members))
	for i, m := range members {
		entries[i] = Entry{m, 1}
	}
	slices.SortFunc(entries, func(a, b Entry) int {
		return cmp.Or(strings.Compare(a.ID, b.ID), strings.Compare(b.Addr, a.Addr))
	})
	entries = slices.CompactFunc(entries, func(a, b Entry) bool { return a.ID == b.ID })
	return build(max(replicas, 1), entries)
}

// build makes the map of entries, sorted by ID without repeats.
func build(replicas int, entries []Entry) *Map {
	m := &Map{Replicas: replicas, entries: entries, byAddr: make(map[string]string)}
	parts := make([]string, 0, 2+len(entries))
	parts = append(parts, mapWireTag, strconv.Itoa(replicas))
	for _, e := range entries {
		m.height += e.Counter
		parts = append(parts, e.ID+"="+e.Addr+"="+strconv.FormatUint(e.Counter, 10))
		if !e.In() {
			continue
		}
		m.members = append(m.members, placed{e.Member, hashing.WyString(e.ID, placementSeed)})
		// Sorted iteration makes the winner deterministic should two
		// ids ever share an address (first id wins).
		if _, dup := m.byAddr[e.Addr]; !dup {
			m.byAddr[e.Addr] = e.ID
		}
	}
	m.enc = strings.Join(parts, " ")
	m.digest = hashing.WyString(m.enc, digestSeed)
	return m
}

// join returns the least map at or above both m and o: per ID the higher
// counter, at equal counters the larger address, and the larger replica
// factor. It returns m itself when o adds nothing to it.
func (m *Map) join(o *Map) *Map {
	a, b := m.entries, o.entries
	out := make([]Entry, 0, max(len(a), len(b)))
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].ID < b[0].ID:
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || b[0].ID < a[0].ID:
			out, b = append(out, b[0]), b[1:]
		case b[0].beats(a[0]):
			out, a, b = append(out, b[0]), a[1:], b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	if j := build(max(m.Replicas, o.Replicas), out); j.enc != m.enc {
		return j
	}
	return m
}

// beats reports whether e wins over f, an entry of the same ID, in a join:
// a higher counter, or an equal one and a larger address.
func (e Entry) beats(f Entry) bool {
	return e.Counter > f.Counter || e.Counter == f.Counter && e.Addr > f.Addr
}

// Height is the sum of m's counters. Every change raises it, and a join is
// at least as high as either side.
func (m *Map) Height() uint64 { return m.height }

// Digest is a 64-bit hash of m's encoding: equal maps have equal digests.
// Gossip digests and DSUM/DKEYS compare it to tell whether two nodes hold
// the same map, and reconcileMap whether to push its join back.
func (m *Map) Digest() uint64 { return m.digest }

// Stamp renders m's height and digest as reply fields, "h=<height>
// d=<digest in hex>": the form JOIN/LEAVE replies, CLUSTER INFO and -STALE
// refusals carry.
func (m *Map) Stamp() string { return fmt.Sprintf("h=%d d=%016x", m.height, m.digest) }

// Entries returns every ID m records, in and out, sorted by ID.
func (m *Map) Entries() []Entry { return slices.Clone(m.entries) }

// Members returns the members — the IDs that are in — sorted by ID.
func (m *Map) Members() []Member {
	out := make([]Member, len(m.members))
	for i, p := range m.members {
		out[i] = p.Member
	}
	return out
}

// Len returns the number of members.
func (m *Map) Len() int { return len(m.members) }

// entry returns id's entry, in or out (nil if m has never recorded id).
func (m *Map) entry(id string) *Entry {
	if i, ok := slices.BinarySearchFunc(m.entries, id, func(e Entry, id string) int { return strings.Compare(e.ID, id) }); ok {
		return &m.entries[i]
	}
	return nil
}

// member returns member id and its placement hash (nil if it is not in).
func (m *Map) member(id string) *placed {
	if i, ok := slices.BinarySearchFunc(m.members, id, func(p placed, id string) int { return strings.Compare(p.ID, id) }); ok {
		return &m.members[i]
	}
	return nil
}

// Addr returns the address of member id ("" if it is not in).
func (m *Map) Addr(id string) string {
	if p := m.member(id); p != nil {
		return p.Addr
	}
	return ""
}

// Has reports whether node id is a member.
func (m *Map) Has(id string) bool { return m.member(id) != nil }

// IDByAddr returns the member id listening on addr ("" if none) — an
// O(1) reverse lookup for callers on the data path (the failure
// detector turns per-command transport evidence into per-node
// liveness with it).
func (m *Map) IDByAddr(addr string) string { return m.byAddr[addr] }

// Owners returns the members owning key: the Replicas members (all of
// them, if the cluster is smaller) that rank highest for the key, the
// primary first. One pass over the members keeps the best so far in order.
func (m *Map) Owners(key string) []Member {
	h := hashing.WyString(key, placementSeed)
	var inline [8]ranked // on the stack at up to 8 replicas
	top := inline[:0]
	for i := range m.members {
		r, at := m.members[i].rank(h), len(top)
		for at > 0 && r.beats(top[at-1]) {
			at--
		}
		if at == m.Replicas {
			continue
		}
		if len(top) < m.Replicas {
			top = append(top, ranked{})
		}
		copy(top[at+1:], top[at:])
		top[at] = r
	}
	out := make([]Member, len(top))
	for i, r := range top {
		out[i] = r.Member
	}
	return out
}

// ownedBy returns a key filter that accepts the keys whose owners include
// every one of ids; with no ids, or one off the map, it accepts none. A
// key's test ranks the members against the lowest-ranked of ids and
// allocates nothing.
func (m *Map) ownedBy(ids ...string) func(key string) bool {
	given := make([]*placed, 0, len(ids))
	for _, id := range ids {
		p := m.member(id)
		if p == nil {
			given = nil
			break
		}
		given = append(given, p)
	}
	if len(given) == 0 {
		return func(string) bool { return false }
	}
	return func(key string) bool {
		h := hashing.WyString(key, placementSeed)
		last := given[0].rank(h)
		for _, p := range given[1:] {
			if r := p.rank(h); last.beats(r) {
				last = r
			}
		}
		ahead := 0
		for i := range m.members {
			if m.members[i].rank(h).beats(last) {
				if ahead++; ahead >= m.Replicas {
					return false
				}
			}
		}
		return true
	}
}

// passPeers returns the members a pass of node self runs digest rounds
// with: for the timer's pass every other member; for a membership pass
// only those that share some key with self, the peers it has keys to
// compare with. At two replicas or more every pair of members co-owns the
// keys they outscore everyone else on, so that is every other member too;
// at one replica no key has two owners, and a node off the map shares none.
func (m *Map) passPeers(self string, membership bool) []Member {
	if membership && (m.Replicas < 2 || !m.Has(self)) {
		return nil
	}
	return slices.DeleteFunc(m.Members(), func(mem Member) bool { return mem.ID == self })
}

// withNode returns m with id in at addr: its counter moves to the next odd
// value, two up if id is in already (a re-address). Callers check first
// whether id is in at addr.
func (m *Map) withNode(id, addr string) *Map {
	c := uint64(1)
	if e := m.entry(id); e != nil {
		c = e.Counter + 1 + e.Counter%2
	}
	return m.join(build(m.Replicas, []Entry{{Member{id, addr}, c}}))
}

// withoutNode returns m with id out: its counter moves to the next even
// value. m itself if id is not in.
func (m *Map) withoutNode(id string) *Map {
	e := m.entry(id)
	if e == nil || !e.In() {
		return m
	}
	return m.join(build(m.Replicas, []Entry{{e.Member, e.Counter + 1}}))
}

// mapWireTag versions the SETMAP payload; bumping the map schema or the
// placement rule means minting a new tag, so old nodes reject (rather than
// misread) new payloads and vice versa. v4 is the state of per-ID counters
// that nodes join.
const mapWireTag = "v4"

// maxWireMembers caps how many IDs DecodeMap accepts; an adversarial
// payload cannot make a node build an absurd map.
const maxWireMembers = 4096

// maxCounter caps the counters DecodeMap accepts, so that the height of a
// map of maxWireMembers IDs cannot wrap.
const maxCounter = math.MaxUint64 / maxWireMembers

// maxWireBytes caps the total encoded size DecodeMap accepts. It is
// far below the server snapshot reader's 1 MiB metadata limit, so any
// map a node can install is guaranteed to round-trip through the
// snapshot it is persisted in.
const maxWireBytes = 1 << 18

// Encode renders the map as space-separated protocol tokens:
//
//	v4 <replicas> <id>=<addr>=<counter> [...]
//
// the payload of CLUSTER MAP replies and CLUSTER SETMAP commands, and the
// snapshot's metadata. Node IDs and addresses must not contain whitespace
// or '='; Node enforces this at join time. Entries are emitted sorted by
// ID, so equal maps encode byte-identically.
func (m *Map) Encode() string { return m.enc }

// DecodeMap parses Encode's token form. It is deliberately strict — a
// corrupt or adversarial SETMAP payload must yield an error, never a
// panic or a degenerate map (see FuzzMapDecode).
func DecodeMap(tokens []string) (*Map, error) {
	if len(tokens) < 2 {
		return nil, fmt.Errorf("cluster: map needs a tag and a replica factor, got %d tokens", len(tokens))
	}
	total := len(tokens) // separators
	for _, tok := range tokens {
		total += len(tok)
	}
	if total > maxWireBytes {
		return nil, fmt.Errorf("cluster: map payload is %d bytes (limit %d)", total, maxWireBytes)
	}
	if tokens[0] != mapWireTag {
		return nil, fmt.Errorf("cluster: unsupported map payload tag %q (want %s)", tokens[0], mapWireTag)
	}
	replicas, err := strconv.Atoi(tokens[1])
	if err != nil || replicas < 1 || replicas > maxWireMembers {
		return nil, fmt.Errorf("cluster: bad replica factor %q", tokens[1])
	}
	entryTokens := tokens[2:]
	if len(entryTokens) > maxWireMembers {
		return nil, fmt.Errorf("cluster: map claims %d IDs (limit %d)", len(entryTokens), maxWireMembers)
	}
	entries := make([]Entry, 0, len(entryTokens))
	for _, tok := range entryTokens {
		id, rest, _ := strings.Cut(tok, "=")
		addr, count, ok := strings.Cut(rest, "=")
		c, err := strconv.ParseUint(count, 10, 64)
		if !ok || !validID(id) || addr == "" || err != nil || c == 0 || c > maxCounter {
			return nil, fmt.Errorf("cluster: bad map entry %q", tok)
		}
		entries = append(entries, Entry{Member{id, addr}, c})
	}
	slices.SortFunc(entries, func(a, b Entry) int { return strings.Compare(a.ID, b.ID) })
	for i := 1; i < len(entries); i++ {
		if entries[i].ID == entries[i-1].ID {
			return nil, fmt.Errorf("cluster: duplicate map entry %q", entries[i].ID)
		}
	}
	return build(replicas, entries), nil
}

// validID reports whether id is usable on the wire (non-empty, no
// whitespace, no '=').
func validID(id string) bool {
	return id != "" && !strings.ContainsAny(id, " \t\r\n=")
}
