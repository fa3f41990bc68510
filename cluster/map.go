package cluster

import (
	"cmp"
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

// ownedBy returns a key filter that accepts the keys whose owners include
// every one of ids. The owners are the same over each arc of the ring, so
// one walk over the arcs marks the accepted ones, and a key's test is a
// hash, a binary search and a lookup — no per-key owner list.
func (m *Map) ownedBy(ids ...string) func(key string) bool {
	if len(m.ring.hashes) == 0 {
		return func(string) bool { return false }
	}
	accept := make([]bool, len(m.ring.hashes))
	owners := make([]string, 0, m.Replicas)
	for i := range accept {
		owners = m.ring.ownersAt(owners, i, m.Replicas)
		accept[i] = !slices.ContainsFunc(ids, func(id string) bool { return !slices.Contains(owners, id) })
	}
	return func(key string) bool { return accept[m.ring.arcOf(key)] }
}

// passPeers returns the members a pass of node self runs digest rounds
// with: for the timer's pass every other member; for a membership pass
// only those that share some key with self, the peers it has keys to
// compare with — none with one replica, none for a node off the map. One
// walk of the ring finds them.
func (m *Map) passPeers(self string, membership bool) []Member {
	peers := m.Members()
	if !membership {
		return slices.DeleteFunc(peers, func(mem Member) bool { return mem.ID == self })
	}
	co := make(map[string]bool)
	owners := make([]string, 0, m.Replicas)
	for i := range m.ring.hashes {
		if owners = m.ring.ownersAt(owners, i, m.Replicas); slices.Contains(owners, self) {
			for _, id := range owners {
				co[id] = true
			}
		}
	}
	return slices.DeleteFunc(peers, func(mem Member) bool { return mem.ID == self || !co[mem.ID] })
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
	parts := make([]string, 0, 5+len(m.nodes))
	parts = append(parts, mapWireTag,
		strconv.FormatUint(m.Epoch, 10),
		strconv.FormatUint(m.Version, 10),
		cmp.Or(m.Coordinator, noCoordinator),
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
// whitespace, no '='; not starting with '~', which marks gossip
// eviction-record tokens).
func validID(id string) bool {
	return id != "" && id[0] != '~' && !strings.ContainsAny(id, " \t\r\n=")
}
