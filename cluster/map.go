package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
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
// coordinator retries at a higher epoch. Claim replies carry each
// voter's current map and the coordinator adopts the newest before
// minting, so the later mutation builds on — rather than overwrites —
// a rival map that is still mid-broadcast, as long as some reachable
// member has installed it. Even when a partition lets equal-epoch maps
// escape (quorum unreachable), the Version and Coordinator tie-breaks
// still give every node the same winner, so reconciliation never
// stalls — convergence degrades, correctness does not.
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
	nodes       map[string]string // id → addr
	byAddr      map[string]string // addr → id (reverse index, built once)
	ring        *ring
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
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	byAddr := make(map[string]string, len(nodes))
	for _, id := range ids {
		// Sorted iteration makes the winner deterministic should two
		// ids ever share an address (first id wins).
		if _, dup := byAddr[nodes[id]]; !dup {
			byAddr[nodes[id]] = id
		}
	}
	return &Map{
		Epoch:       epoch,
		Version:     version,
		Coordinator: coordinator,
		Replicas:    replicas,
		nodes:       nodes,
		byAddr:      byAddr,
		ring:        newRing(ids),
	}
}

// Newer reports whether m supersedes other under the total order
// (Epoch, Version, Coordinator). A nil other is always superseded.
// Equal maps are NOT newer, which makes re-delivered SETMAPs no-ops.
func (m *Map) Newer(other *Map) bool {
	if other == nil {
		return true
	}
	if m.Epoch != other.Epoch {
		return m.Epoch > other.Epoch
	}
	if m.Version != other.Version {
		return m.Version > other.Version
	}
	return m.Coordinator > other.Coordinator
}

// SupersededByTriple reports whether an ordering triple (epoch,
// version, coordinator) — e.g. one carried in a gossip digest, without
// its full map — supersedes m under the same total order as Newer.
func (m *Map) SupersededByTriple(epoch, version uint64, coordinator string) bool {
	if epoch != m.Epoch {
		return epoch > m.Epoch
	}
	if version != m.Version {
		return version > m.Version
	}
	return coordinator > m.Coordinator
}

// Triple renders m's ordering triple as reply fields: "e=<epoch>
// v=<version> c=<coordinator|->" — the form JOIN/LEAVE replies carry so
// an operator whose mutation lost can see the map that won.
func (m *Map) Triple() string {
	coord := m.Coordinator
	if coord == "" {
		coord = noCoordinator
	}
	return fmt.Sprintf("e=%d v=%d c=%s", m.Epoch, m.Version, coord)
}

// Members returns all members sorted by ID.
func (m *Map) Members() []Member {
	out := make([]Member, 0, len(m.nodes))
	for id, addr := range m.nodes {
		out = append(out, Member{ID: id, Addr: addr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of members.
func (m *Map) Len() int { return len(m.nodes) }

// Addr returns the address of node id ("" if absent).
func (m *Map) Addr(id string) string { return m.nodes[id] }

// Has reports whether node id is a member.
func (m *Map) Has(id string) bool { _, ok := m.nodes[id]; return ok }

// IDByAddr returns the member id listening on addr ("" if none) — an
// O(1) reverse lookup for callers on the data path (the failure
// detector turns per-command transport evidence into per-node
// liveness with it).
func (m *Map) IDByAddr(addr string) string { return m.byAddr[addr] }

// Owners returns the members owning key: the primary first, then up to
// Replicas-1 distinct replicas (fewer if the cluster is smaller).
func (m *Map) Owners(key string) []Member {
	ids := m.ring.ownersOf(key, m.Replicas)
	out := make([]Member, len(ids))
	for i, id := range ids {
		out[i] = Member{ID: id, Addr: m.nodes[id]}
	}
	return out
}

// ownerIDs returns just the IDs owning key, for cheap owner-set diffs.
func (m *Map) ownerIDs(key string) []string { return m.ring.ownersOf(key, m.Replicas) }

// coOwned reports whether some key has both a and b among its owners: the
// peers a digest round of a has keys to compare with. With one replica no
// two nodes are; a node off the map is with none.
func (m *Map) coOwned(a, b string) bool {
	for i := range m.ring.hashes {
		if ids := m.ring.ownersAt(i, m.Replicas); slices.Contains(ids, a) && slices.Contains(ids, b) {
			return true
		}
	}
	return false
}

// withNode returns a new map minted by coordinator at epoch with node
// id added or re-addressed, at version+1.
func (m *Map) withNode(id, addr string, epoch uint64, coordinator string) *Map {
	nodes := make(map[string]string, len(m.nodes)+1)
	for k, v := range m.nodes {
		nodes[k] = v
	}
	nodes[id] = addr
	return build(epoch, m.Version+1, coordinator, m.Replicas, nodes)
}

// withoutNode returns a new map minted by coordinator at epoch with
// node id removed, at version+1.
func (m *Map) withoutNode(id string, epoch uint64, coordinator string) *Map {
	nodes := make(map[string]string, len(m.nodes))
	for k, v := range m.nodes {
		if k != id {
			nodes[k] = v
		}
	}
	return build(epoch, m.Version+1, coordinator, m.Replicas, nodes)
}

// mapWireTag versions the SETMAP payload; bumping the map schema means
// minting a new tag, so old nodes reject (rather than misparse) new
// payloads and vice versa.
const mapWireTag = "v2"

// noCoordinator is the wire spelling of an empty Coordinator (tokens
// cannot be empty).
const noCoordinator = "-"

// maxWireMembers caps how many members DecodeMap accepts; an
// adversarial payload cannot make a node build an absurd ring.
const maxWireMembers = 4096

// maxWireBytes caps the total encoded size DecodeMap accepts. It is
// far below the server snapshot reader's 1 MiB metadata limit, so any
// map a node can install is guaranteed to round-trip through the
// snapshot it is persisted in.
const maxWireBytes = 1 << 18

// Encode renders the map as space-separated protocol tokens:
//
//	v2 <epoch> <version> <coordinator|-> <replicas> <id>=<addr> [...]
//
// the payload of CLUSTER MAP replies and CLUSTER SETMAP commands. Node
// IDs, addresses and coordinator must not contain whitespace or '=';
// Node enforces this at join time. Members are emitted sorted by ID,
// so equal maps encode byte-identically.
func (m *Map) Encode() string {
	coord := m.Coordinator
	if coord == "" {
		coord = noCoordinator
	}
	parts := make([]string, 0, 5+len(m.nodes))
	parts = append(parts, mapWireTag,
		strconv.FormatUint(m.Epoch, 10),
		strconv.FormatUint(m.Version, 10),
		coord,
		strconv.Itoa(m.Replicas))
	for _, mem := range m.Members() {
		parts = append(parts, mem.ID+"="+mem.Addr)
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
	epoch, err := strconv.ParseUint(tokens[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad map epoch %q", tokens[1])
	}
	version, err := strconv.ParseUint(tokens[2], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad map version %q", tokens[2])
	}
	coordinator := tokens[3]
	if coordinator == noCoordinator {
		coordinator = ""
	} else if !validID(coordinator) {
		return nil, fmt.Errorf("cluster: bad map coordinator %q", tokens[3])
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
	return build(epoch, version, coordinator, replicas, nodes), nil
}

// validID reports whether id is usable on the wire (non-empty, no
// whitespace, no '='; not starting with '~', which marks gossip
// eviction-record tokens).
func validID(id string) bool {
	return id != "" && id[0] != '~' && !strings.ContainsAny(id, " \t\r\n=")
}
