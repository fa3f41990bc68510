// Package cluster turns the single-node server package into a sharded,
// replicated sketch cluster. A versioned cluster map places every key on
// N owner nodes by rendezvous hashing; any node accepts any command,
// forwarding writes to the key's owners and answering distinct-count
// queries by scatter-gathering serialized sketches and merging them
// locally. Because ExaLogLog merging is commutative and idempotent (paper
// Section 1), replicas may be written redundantly and blobs re-sent at
// will — rebalancing after membership changes is just "push your copy to
// whoever owns it now".
//
// Wire-wise the cluster layers CLUSTER subcommands onto the server line
// protocol and is the keyspace the server's data verbs (PFADD … KEYS) act
// on, so any existing client pointed at any node sees one logical store.
package cluster

import (
	"cmp"
	"fmt"
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

// Map is an immutable view of cluster membership: which nodes exist,
// where they listen, and how many replicas each key gets. Nodes
// exchange maps with the CLUSTER SETMAP verb; newer maps win, so a map
// change made on any node converges everywhere. Treat a Map as
// read-only once built — derive changed maps with withNode/withoutNode.
//
// # Epoch rules
//
// Maps are totally ordered by (Epoch, Version, Coordinator), compared
// in that order — see Newer. Every membership mutation goes through a
// coordinator that first wins a claim on a fresh epoch from a quorum
// (majority) of the current members (CLUSTER EPOCH, à la Redis
// Cluster's config epochs), then mints the new map at that epoch and
// broadcasts it. A node grants each epoch to at most one coordinator,
// and majorities intersect, so two concurrent JOIN/LEAVEs routed
// through different coordinators cannot both win the same epoch: one
// coordinator retries at a higher epoch. Each vote carries the voter's
// map triple, and when one supersedes the coordinator's map it pulls
// that voter's map (CLUSTER MAP) before minting, so the later mutation
// builds on — rather than overwrites — a rival map that is still
// mid-broadcast, as long as some reachable member has installed it.
// Installing a map is a max-join under the order, so a node needs only
// the other side's triple to know whether to pull (CLUSTER MAP) or push
// (CLUSTER SETMAP); maps travel as nothing else. Even when a partition
// lets equal-epoch maps escape (quorum unreachable), the Version and
// Coordinator tie-breaks still give every node the same winner, so
// reconciliation never stalls — convergence degrades, correctness does
// not.
//
// # Limits (single partition)
//
// Epoch fencing orders maps; it is not consensus. During a partition a
// majority side can keep mutating while the minority side serves its
// last map, and a minority-side mutation that cannot reach quorum
// fails. When the partition heals, the highest-epoch map wins
// everywhere (gossip/SETMAP) and the losing side's unmerged membership
// mutations — not its sketch data, which rebalance re-pushes — are
// discarded and must be re-issued. Likewise, a mutation whose
// coordinator becomes unreachable before any reachable member learns
// its map can be superseded by a later, higher-epoch mutation minted
// from an older parent, even though the coordinator replied OK. This
// buys convergence without a consensus dependency; it does not buy
// linearizable membership.
type Map struct {
	// Epoch is the fencing token: it increases on every membership
	// mutation and dominates the ordering.
	Epoch uint64
	// Version counts mutations within the map's lineage; it breaks
	// ties between equal-epoch maps (possible only when a claim could
	// not reach quorum).
	Version uint64
	// Coordinator is the ID of the node that minted this map ("" for
	// a node's initial self-map); it is the final, deterministic
	// tie-break.
	Coordinator string
	Replicas    int
	members     []placed          // sorted by ID
	byAddr      map[string]string // addr → id (reverse index, built once)
}

// placementSeed seeds the placement hashes of keys and members. It differs
// from the store's shard seed, so the keys one node owns spread over all of
// its shards.
const placementSeed = 0x2545f4914f6cdd1d

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

// NewMap builds an epoch-1, version-1 map with the given replica factor
// and members. Replicas is clamped to at least 1.
func NewMap(replicas int, members ...Member) *Map {
	if replicas < 1 {
		replicas = 1
	}
	nodes := make(map[string]string, len(members))
	for _, m := range members {
		nodes[m.ID] = m.Addr
	}
	return build(1, 1, "", replicas, nodes)
}

func build(epoch, version uint64, coordinator string, replicas int, nodes map[string]string) *Map {
	members := make([]placed, 0, len(nodes))
	for id, addr := range nodes {
		members = append(members, placed{Member{id, addr}, hashing.WyString(id, placementSeed)})
	}
	slices.SortFunc(members, func(a, b placed) int { return strings.Compare(a.ID, b.ID) })
	byAddr := make(map[string]string, len(nodes))
	for _, p := range members {
		// Sorted iteration makes the winner deterministic should two
		// ids ever share an address (first id wins).
		if _, dup := byAddr[p.Addr]; !dup {
			byAddr[p.Addr] = p.ID
		}
	}
	return &Map{
		Epoch:       epoch,
		Version:     version,
		Coordinator: coordinator,
		Replicas:    replicas,
		members:     members,
		byAddr:      byAddr,
	}
}

// Newer reports whether m supersedes other under the total order
// (Epoch, Version, Coordinator). A nil other is always superseded.
// Equal maps are NOT newer, which makes re-delivered SETMAPs no-ops.
func (m *Map) Newer(other *Map) bool {
	return other == nil || m.triple().after(other.triple())
}

// triple is a map's place in the total order: all of a map that gossip
// digests, EPOCH votes and DSUM/DKEYS requests and refusals carry.
type triple struct {
	epoch, version uint64
	coordinator    string
}

func (m *Map) triple() triple { return triple{m.Epoch, m.Version, m.Coordinator} }

// after reports whether t supersedes u: the epoch decides, then the
// version, then the coordinator.
func (t triple) after(u triple) bool {
	if t.epoch != u.epoch {
		return t.epoch > u.epoch
	}
	if t.version != u.version {
		return t.version > u.version
	}
	return t.coordinator > u.coordinator
}

// Triple renders m's ordering triple as reply fields: "e=<epoch>
// v=<version> c=<coordinator|->" — the form JOIN/LEAVE replies carry so
// an operator whose mutation lost can see the map that won, and the
// form EPOCH votes and DSUM/DKEYS carry in place of the map.
func (m *Map) Triple() string {
	return fmt.Sprintf("e=%d v=%d c=%s", m.Epoch, m.Version, cmp.Or(m.Coordinator, noCoordinator))
}

// parseTriple is Triple's inverse, for the triples that arrive in Triple's
// form.
func parseTriple(fields []string) (triple, error) {
	if len(fields) == 3 {
		e, okE := strings.CutPrefix(fields[0], "e=")
		v, okV := strings.CutPrefix(fields[1], "v=")
		c, okC := strings.CutPrefix(fields[2], "c=")
		if okE && okV && okC {
			return readTriple(e, v, c)
		}
	}
	return triple{}, fmt.Errorf("cluster: bad map triple %q (want e=<epoch> v=<version> c=<coordinator>)", strings.Join(fields, " "))
}

// readTriple reads the three fields of a triple as every wire form spells
// them — a decimal epoch and version, a coordinator ID or "-" — Triple's
// as much as the map's and the gossip digest's.
func readTriple(epoch, version, coordinator string) (triple, error) {
	e, err := strconv.ParseUint(epoch, 10, 64)
	if err != nil {
		return triple{}, fmt.Errorf("cluster: bad epoch %q", epoch)
	}
	v, err := strconv.ParseUint(version, 10, 64)
	if err != nil {
		return triple{}, fmt.Errorf("cluster: bad version %q", version)
	}
	if coordinator == noCoordinator {
		coordinator = ""
	} else if !validID(coordinator) {
		return triple{}, fmt.Errorf("cluster: bad coordinator %q", coordinator)
	}
	return triple{e, v, coordinator}, nil
}

// Members returns all members sorted by ID.
func (m *Map) Members() []Member {
	out := make([]Member, len(m.members))
	for i, p := range m.members {
		out[i] = p.Member
	}
	return out
}

// Len returns the number of members.
func (m *Map) Len() int { return len(m.members) }

// member returns member id and its placement hash (nil if absent).
func (m *Map) member(id string) *placed {
	if i, ok := slices.BinarySearchFunc(m.members, id, func(p placed, id string) int { return strings.Compare(p.ID, id) }); ok {
		return &m.members[i]
	}
	return nil
}

// Addr returns the address of node id ("" if absent).
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

// withNode returns a new map minted by coordinator at epoch with node
// id added or re-addressed, at version+1.
func (m *Map) withNode(id, addr string, epoch uint64, coordinator string) *Map {
	nodes := m.nodeAddrs()
	nodes[id] = addr
	return build(epoch, m.Version+1, coordinator, m.Replicas, nodes)
}

// withoutNode returns a new map minted by coordinator at epoch with
// node id removed, at version+1.
func (m *Map) withoutNode(id string, epoch uint64, coordinator string) *Map {
	nodes := m.nodeAddrs()
	delete(nodes, id)
	return build(epoch, m.Version+1, coordinator, m.Replicas, nodes)
}

// nodeAddrs returns m's members as a fresh id → addr map, for build.
func (m *Map) nodeAddrs() map[string]string {
	nodes := make(map[string]string, len(m.members)+1)
	for _, p := range m.members {
		nodes[p.ID] = p.Addr
	}
	return nodes
}

// mapWireTag versions the SETMAP payload; bumping the map schema or the
// placement rule means minting a new tag, so old nodes reject (rather than
// misread) new payloads and vice versa. v3 places keys by rendezvous
// hashing; v2 maps were placed on a virtual-node ring.
const mapWireTag = "v3"

// noCoordinator is the wire spelling of an empty Coordinator (tokens
// cannot be empty).
const noCoordinator = "-"

// maxWireMembers caps how many members DecodeMap accepts; an
// adversarial payload cannot make a node build an absurd map.
const maxWireMembers = 4096

// maxWireBytes caps the total encoded size DecodeMap accepts. It is
// far below the server snapshot reader's 1 MiB metadata limit, so any
// map a node can install is guaranteed to round-trip through the
// snapshot it is persisted in.
const maxWireBytes = 1 << 18

// Encode renders the map as space-separated protocol tokens:
//
//	v3 <epoch> <version> <coordinator|-> <replicas> <id>=<addr> [...]
//
// the payload of CLUSTER MAP replies and CLUSTER SETMAP commands. Node
// IDs, addresses and coordinator must not contain whitespace or '=';
// Node enforces this at join time. Members are emitted sorted by ID,
// so equal maps encode byte-identically.
func (m *Map) Encode() string {
	parts := make([]string, 0, 5+len(m.members))
	parts = append(parts, mapWireTag,
		strconv.FormatUint(m.Epoch, 10),
		strconv.FormatUint(m.Version, 10),
		cmp.Or(m.Coordinator, noCoordinator),
		strconv.Itoa(m.Replicas))
	for _, p := range m.members {
		parts = append(parts, p.ID+"="+p.Addr)
	}
	return strings.Join(parts, " ")
}

// DecodeMap parses Encode's token form. It is deliberately strict — a
// corrupt or adversarial SETMAP payload must yield an error, never a
// panic or a degenerate map (see FuzzMapDecode).
func DecodeMap(tokens []string) (*Map, error) {
	if len(tokens) < 5 {
		return nil, fmt.Errorf("cluster: map needs tag, epoch, version, coordinator and replicas, got %d tokens", len(tokens))
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
	t, err := readTriple(tokens[1], tokens[2], tokens[3])
	if err != nil {
		return nil, err
	}
	replicas, err := strconv.Atoi(tokens[4])
	if err != nil || replicas < 1 || replicas > maxWireMembers {
		return nil, fmt.Errorf("cluster: bad replica factor %q", tokens[4])
	}
	memberTokens := tokens[5:]
	if len(memberTokens) > maxWireMembers {
		return nil, fmt.Errorf("cluster: map claims %d members (limit %d)", len(memberTokens), maxWireMembers)
	}
	nodes := make(map[string]string, len(memberTokens))
	for _, tok := range memberTokens {
		id, addr, ok := strings.Cut(tok, "=")
		if !ok || !validID(id) || addr == "" || strings.Contains(addr, "=") {
			return nil, fmt.Errorf("cluster: bad member token %q", tok)
		}
		if _, dup := nodes[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate member %q", id)
		}
		nodes[id] = addr
	}
	// A wire map with no members is always bogus — installing one would
	// make every key ownerless and rebalance could drop local data.
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: map has no members")
	}
	return build(t.epoch, t.version, t.coordinator, replicas, nodes), nil
}

// validID reports whether id is usable on the wire (non-empty, no
// whitespace, no '=').
func validID(id string) bool {
	return id != "" && !strings.ContainsAny(id, " \t\r\n=")
}
