package cluster

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exaloglog/internal/core"
	"exaloglog/server"
	"exaloglog/window"
)

// Node is one member of a sketch cluster. It embeds a server.Store and
// server.Server, overriding PFADD / PFCOUNT / PFMERGE / WADD / WCOUNT /
// WINFO / DEL / KEYS with cluster-wide semantics and adding CLUSTER
// subcommands:
//
//	CLUSTER INFO                       → +id=.. addr=.. e=.. v=.. replicas=.. nodes=.. keys=.. rebal=..
//	CLUSTER MAP                        → +v2 <epoch> <version> <coordinator> <replicas> <id>=<addr> ...
//	CLUSTER JOIN <id> <addr>           → +OK e=.. v=.. c=.. (claims an epoch, adds the node, broadcasts)
//	                                     or +SUPERSEDED e=.. v=.. c=.. (a rival map won; the triple is the winner's)
//	CLUSTER LEAVE <id>                 → +OK e=.. v=.. c=.. / +SUPERSEDED e=.. v=.. c=.. (as JOIN, removing the node)
//	CLUSTER SETMAP <v2 payload>        → +OK (install if newer under the epoch order, then run a digest round)
//	CLUSTER EPOCH <epoch> <coord>      → +GRANTED <epoch> / +DENIED <highest> (epoch claim; internal)
//	CLUSTER GOSSIP <g1 digest>         → +<g1 digest> (push-pull failure-detector exchange; internal)
//	CLUSTER HEALTH                     → +round=.. quorum=.. member=.. <id>=<state>,hb=..,heard=..,sus=.. ...
//	CLUSTER MLADD <g> <group>... ×g    → +<g tokens> (batched mixed plain/windowed local adds; internal replication verb)
//	CLUSTER LDEL <key>                 → :1/:0 (local delete; internal)
//	CLUSTER LEXPIREAT <key> <ms>       → :1/:0 (local absolute-deadline arm; internal, see lifecycle.go)
//	CLUSTER LDEADLINE <key>            → :<ms> (local deadline read; internal)
//	CLUSTER LPERSIST <key>             → :1/:0 (local deadline clear; internal)
//	CLUSTER LKEYS                      → +<keys> (local keys; internal)
//	CLUSTER ABSORB <key> <base64> <ms> → +OK (merge a sketch blob into key; ms is the expiry deadline to impose, 0 = none; internal, PFMERGE's)
//	CLUSTER DSUM|DKEYS ...             → digest round exchanges (internal; see digestsync.go)
//	CLUSTER XFER FRAME e=<epoch> <b64> → +OK | -STALE e=.. (merge one frame of records; internal, see transfer.go)
//
// A membership change moves data one way only: every node that installs
// the newer map drains the keys it no longer owns and runs a digest round
// against its peers (installAndSync), before it answers the SETMAP.
//
// It also overrides EXPIRE / PEXPIRE / TTL / PERSIST with cluster-wide
// semantics: the coordinator computes the absolute deadline once and
// replicates that instant to every owner (see lifecycle.go).
//
// Any node answers any command: writes are forwarded to all of the key's
// owners (chosen by the consistent-hash ring), and counts scatter DUMP
// requests to the owners and merge the serialized sketches locally.
// DUMP / RESTORE / INFO / SAVE remain node-local, which is exactly what
// the scatter-gather path relies on.
//
// Membership mutations are fenced by epochs (see Map): the coordinator
// first wins a fresh epoch from a majority of the current members, so
// concurrent JOIN/LEAVEs through different coordinators converge to
// one map. The current map is mirrored into the store's metadata blob,
// which snapshots persist — a restarted node remembers its cluster and
// Rejoin re-enters it without any seed address.
type Node struct {
	id    string
	store *server.Store
	srv   *server.Server
	peers *pool

	pushes     atomic.Uint64 // keys shipped by map-install rounds and stray drains
	autoLeaves atomic.Uint64 // quorum-backed evictions this node coordinated

	digestRounds  atomic.Uint64 // digest anti-entropy peer-rounds initiated
	digestRepairs atomic.Uint64 // divergent keys shipped by digest repair

	// strict gates the -MOVED answer path: when set, public single-key
	// data verbs for keys this node does not own are redirected instead
	// of forwarded (see SetStrictRouting). Off by default — coordinator
	// mode, where any node answers any command, stays the default.
	strict       atomic.Bool
	movedReplies atomic.Uint64 // -MOVED redirects sent to misrouted clients
	mapRefetches atomic.Uint64 // CLUSTER MAP replies served (smart clients refetching after a -MOVED)

	// mutateMu serializes membership mutations coordinated BY THIS
	// node (claim → mint → install → broadcast), so two JOINs arriving
	// at the same coordinator cannot claim successive epochs and then
	// mint rival maps from the same parent — losing one silently.
	// Mutations coordinated elsewhere need no lock; epochs fence them.
	mutateMu sync.Mutex

	mu           sync.RWMutex
	cmap         *Map
	grantedEpoch uint64 // highest epoch granted to a coordinator or seen in a map
	grantedTo    string // coordinator holding grantedEpoch ("" if from a map/fast-forward)

	// gsp is the gossip failure detector (see gossip.go). Its lock is
	// ordered strictly after mu and mutateMu: detector code may read
	// the map, map code never touches detector state.
	gsp gossipState

	// xfer is the transfer pipeline's config and counters (see
	// transfer.go).
	xfer transferState
}

// ErrSuperseded is returned (wrapped) by Join when the mutation was
// overtaken by a newer map before it could stick — the operator must
// inspect the cluster and re-issue if still wanted.
var ErrSuperseded = errors.New("membership mutation superseded by a newer map")

const (
	// epochClaimAttempts bounds how often one claim re-proposes after
	// being outbid before giving up.
	epochClaimAttempts = 6
	// mutateAttempts bounds how often JOIN/LEAVE retries when newer
	// maps keep landing between its claim and its install.
	mutateAttempts = 6
)

// NewNode creates a cluster node with the given ID (no whitespace or
// '='), sketch configuration and replica factor. Call Start to begin
// serving, then optionally Join to enter an existing cluster.
func NewNode(id string, cfg core.Config, replicas int) (*Node, error) {
	if !validID(id) {
		return nil, fmt.Errorf("cluster: invalid node ID %q", id)
	}
	if replicas < 1 {
		return nil, fmt.Errorf("cluster: replica factor %d < 1", replicas)
	}
	store, err := server.NewStore(cfg)
	if err != nil {
		return nil, err
	}
	n := &Node{id: id, store: store, peers: newPool()}
	// Every pooled peer command runs under a deadline, so a black-holed
	// peer surfaces as a transport error (suspicion fuel) instead of
	// hanging a forward forever. SetPeerTimeout tunes it (elld
	// -peer-timeout).
	n.peers.setTimeout(defaultPeerTimeout)
	n.gsp.cfg = GossipConfig{Fanout: defaultFanout, SuspectAfter: defaultSuspectAfter}
	n.gsp.peers = make(map[string]*peerState)
	n.gsp.evictedAt = make(map[string]uint64)
	// Any successful peer command is liveness evidence; feed it to the
	// failure detector so steady traffic keeps refuting suspicion.
	n.peers.alive = n.markAlive
	n.srv = server.NewServer(store)
	n.srv.Handle("PFADD", n.handlePFAdd)
	n.srv.Handle("PFCOUNT", n.handlePFCount)
	n.srv.Handle("PFMERGE", n.handlePFMerge)
	n.srv.Handle("WADD", n.handleWAdd)
	n.srv.Handle("WCOUNT", n.handleWCount)
	n.srv.Handle("WINFO", n.handleWInfo)
	n.srv.Handle("DEL", n.handleDel)
	n.srv.Handle("EXPIRE", n.handleExpire)
	n.srv.Handle("PEXPIRE", n.handlePExpire)
	n.srv.Handle("TTL", n.handleTTL)
	n.srv.Handle("PERSIST", n.handlePersist)
	n.srv.Handle("KEYS", n.handleKeys)
	n.srv.HandleBytes("CLUSTER", n.handleClusterBytes)
	n.cmap = NewMap(replicas) // empty until Start learns the bound address
	return n, nil
}

// SetSnapshotPath enables the SAVE command on this node's server,
// writing snapshots of the local store to path. Call before Start.
func (n *Node) SetSnapshotPath(path string) { n.srv.SetSnapshotPath(path) }

// Start listens on addr (port 0 picks a free port) and initializes the
// cluster map: to the membership persisted in the store's snapshot
// metadata when one exists and records this node (a restart — call
// Rejoin next to re-announce), otherwise to a fresh single-node
// cluster of this node.
func (n *Node) Start(addr string) error {
	if err := n.srv.Listen(addr); err != nil {
		return err
	}
	actual := n.srv.Addr()
	// A persisted map may record a stale address for this node (it
	// came back on a different port). That is harmless — every
	// internal path routes to self by ID, never by address — and
	// Rejoin announces the real address under a claimed epoch.
	m := n.persistedMap()
	n.mu.Lock()
	if m == nil {
		m = NewMap(n.cmap.Replicas, Member{ID: n.id, Addr: actual})
	}
	n.cmap = m
	if m.Epoch > n.grantedEpoch {
		n.grantedEpoch, n.grantedTo = m.Epoch, m.Coordinator
	}
	n.store.SetMeta([]byte(m.Encode()))
	n.mu.Unlock()
	return nil
}

// persistedMap decodes the membership map persisted in the store's
// snapshot metadata. It returns nil when there is none, it is corrupt,
// or it does not record this node (a foreign snapshot).
func (n *Node) persistedMap() *Map {
	meta := n.store.Meta()
	if len(meta) == 0 {
		return nil
	}
	m, err := DecodeMap(strings.Fields(string(meta)))
	if err != nil || !m.Has(n.id) {
		return nil
	}
	return m
}

// Rejoin re-enters the cluster recorded in this node's persisted map
// (typically loaded from a snapshot before Start) without any seed
// address: it Joins through the first reachable recorded peer, which
// re-announces this node's address and pulls the cluster's current
// map. A single-node recorded map is already "rejoined". Use it in
// place of Join when restarting a node whose snapshot survived.
func (n *Node) Rejoin() error {
	var errs []error
	for _, mem := range n.currentMap().Members() {
		if mem.ID == n.id {
			continue
		}
		if err := n.Join(mem.Addr); err != nil {
			errs = append(errs, err)
			continue
		}
		return nil
	}
	if len(errs) == 0 {
		return nil // single-node cluster: nothing to rejoin
	}
	// No peer could coordinate the join. If this node came back on a
	// NEW address, the peers' epoch quorum may need its own vote (a
	// 2-node cluster: the peer's claim targets the dead recorded
	// address and can never win) — coordinate the re-announce locally
	// instead: the self-grant plus any reachable peer's grant can
	// still make quorum, and the broadcast carries the address out.
	if n.currentMap().Addr(n.id) != n.Addr() {
		if reply := n.handleJoin(n.id, n.Addr()); strings.HasPrefix(reply, "+OK") {
			return nil
		}
	}
	return fmt.Errorf("cluster: rejoin: no recorded peer reachable: %w", errors.Join(errs...))
}

// Join enters the cluster that seedAddr is a member of: the seed adds
// this node to its map, drains what it no longer owns, and broadcasts the
// new map to every member (including this node), each of which drains and
// runs its digest round before replying; then the seed runs its own
// rounds (moveThenAnnounce). When Join returns nil the whole cluster has
// converged on the new map: every key is on its new owners, and a further
// digest round repairs nothing.
func (n *Node) Join(seedAddr string) error {
	// A connection of its own, NOT the pooled one (pool.direct): the seed
	// answers JOIN only after its SETMAP to this node is answered, and
	// this node's round pushes its keys back to the seed over the pool. A
	// JOIN pending on the pooled connection would hold that push up for
	// good whenever a node with local data (e.g. restored from snapshot)
	// joins on a fresh address.
	reply, err := n.peers.direct(seedAddr, "CLUSTER", "JOIN", n.id, n.Addr())
	if err != nil {
		return fmt.Errorf("cluster: join via %s: %w", seedAddr, err)
	}
	if strings.HasPrefix(reply, "SUPERSEDED") {
		return fmt.Errorf("cluster: join via %s: %w (winner %s)",
			seedAddr, ErrSuperseded, strings.TrimSpace(strings.TrimPrefix(reply, "SUPERSEDED")))
	}
	if !strings.HasPrefix(reply, "OK") {
		return fmt.Errorf("cluster: join via %s: unexpected reply %q", seedAddr, reply)
	}
	// Pull the seed's map explicitly: on an idempotent re-join (this node
	// was already a member, e.g. it restarted) the seed does not
	// re-broadcast, so without this a restarted node would keep its stale
	// self-only map. The round that follows its install pushes any
	// locally restored sketches to their current owners.
	m, err := n.peerMap(seedAddr)
	if err != nil {
		return err
	}
	if err := n.installAndSync(m); err != nil {
		return fmt.Errorf("cluster: sync after join: %w", err)
	}
	return nil
}

// Leave gracefully exits the cluster: this node claims a fresh epoch and
// installs the map without itself, drains every local sketch to its new
// owners (safe to re-send — merging is idempotent), then broadcasts the
// map to the remaining members, each of which runs its digest round
// before replying. When Leave returns nil the remaining members have
// converged on the new map and this node holds nothing.
func (n *Node) Leave() error {
	n.mutateMu.Lock()
	defer n.mutateMu.Unlock()
	for attempt := 0; attempt < mutateAttempts; attempt++ {
		if !n.currentMap().Has(n.id) {
			// Already off the map — possibly from a previous Leave
			// that failed AFTER installing the self-excluded map.
			// Finish the hand-off idempotently instead of reporting
			// instant success: drain whatever is still local and
			// re-tell the members (no-ops when all done).
			if err := n.moveThenAnnounce(n.currentMap(), nil); err != nil {
				return fmt.Errorf("cluster: leave: %w", err)
			}
			return nil
		}
		epoch, err := n.claimEpoch()
		if err != nil {
			return fmt.Errorf("cluster: leave: %w", err)
		}
		cur := n.currentMap()
		if !cur.Has(n.id) {
			continue // someone else removed us mid-claim: drain via the loop top
		}
		newMap := cur.withoutNode(n.id, epoch, n.id)
		if !n.swapMap(newMap) {
			continue // a newer map landed between claim and install; retry
		}
		// Off the map this node owns nothing, so its pass is the drain
		// alone, and it runs before the broadcast: a read that no longer
		// asks this node finds the keys on their owners already.
		if err := n.moveThenAnnounce(newMap, nil); err != nil {
			return fmt.Errorf("cluster: leave: %w", err)
		}
		return nil
	}
	return errors.New("cluster: leave kept losing to concurrent membership changes")
}

// Close shuts down the node's server and peer connections.
func (n *Node) Close() error {
	n.peers.closeAll()
	return n.srv.Close()
}

// ID returns the node's cluster ID.
func (n *Node) ID() string { return n.id }

// Addr returns the node's listen address ("" before Start).
func (n *Node) Addr() string { return n.srv.Addr() }

// Store exposes the node's local sketch store, e.g. for snapshot
// load/save around restarts.
func (n *Node) Store() *server.Store { return n.store }

// Map returns the node's current cluster map. Treat it as read-only.
func (n *Node) Map() *Map { return n.currentMap() }

// SetStrictRouting toggles the smart-client answer path: when enabled,
// a public single-key data verb (PFADD, WADD, WCOUNT, WINFO, DEL,
// EXPIRE, PEXPIRE, TTL, PERSIST, and single-key PFCOUNT) whose key this
// node does not own is answered with
//
//	-MOVED e=<epoch> <id>=<addr>
//
// naming the primary owner under this node's current map, instead of
// being forwarded on the client's behalf. ClusterClient follows the
// redirect; dumb clients see it as an error. Multi-key reads (PFCOUNT
// with several keys, PFMERGE, KEYS) are always served — they are
// scatter-gathers with no single owner to point at. Internal forwards
// (the CLUSTER L*/MLADD/ABSORB verbs) are exempt by construction:
// they bypass the public handlers entirely, so a replica can never
// bounce a replication write into a redirect loop. Off by default;
// safe to toggle at runtime.
func (n *Node) SetStrictRouting(on bool) { n.strict.Store(on) }

// moved returns the -MOVED redirect line for key when strict routing is
// on and this node is not among the key's owners. The epoch tag lets
// clients ignore redirects older than the map they already hold.
func (n *Node) moved(key string) (string, bool) {
	if !n.strict.Load() {
		return "", false
	}
	m := n.currentMap()
	owners := m.Owners(key)
	if len(owners) == 0 {
		return "", false
	}
	for _, o := range owners {
		if o.ID == n.id {
			return "", false
		}
	}
	n.movedReplies.Add(1)
	return fmt.Sprintf("-MOVED e=%d %s=%s", m.Epoch, owners[0].ID, owners[0].Addr), true
}

func (n *Node) currentMap() *Map {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.cmap
}

// swapMap installs m if it supersedes the current map under the
// (Epoch, Version, Coordinator) order, mirroring it into the store's
// snapshot metadata and fast-forwarding the node's epoch watermark. It
// reports whether it did. Moving the data is the caller's: see
// installAndSync.
func (n *Node) swapMap(m *Map) (changed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !m.Newer(n.cmap) {
		return false
	}
	n.cmap = m
	if m.Epoch > n.grantedEpoch {
		n.grantedEpoch, n.grantedTo = m.Epoch, m.Coordinator
	}
	n.store.SetMeta([]byte(m.Encode()))
	return true
}

// grantEpoch is this node's vote in an epoch claim: e is granted iff
// it is above every epoch this node has granted or seen in a map, or
// is a re-request by the coordinator already holding it (idempotent
// retry). highest is the node's watermark after the call, which a
// denied coordinator uses to fast-forward its next proposal.
func (n *Node) grantEpoch(e uint64, coordinator string) (ok bool, highest uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e > n.grantedEpoch {
		n.grantedEpoch, n.grantedTo = e, coordinator
		return true, e
	}
	if e == n.grantedEpoch && coordinator == n.grantedTo {
		return true, e
	}
	return false, n.grantedEpoch
}

// observeEpoch fast-forwards the epoch watermark to e (learned from a
// denial) without granting it to anyone.
func (n *Node) observeEpoch(e uint64) {
	n.mu.Lock()
	if e > n.grantedEpoch {
		n.grantedEpoch, n.grantedTo = e, ""
	}
	n.mu.Unlock()
}

// nextEpochProposal picks the next epoch to claim: one past everything
// this node has seen.
func (n *Node) nextEpochProposal() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	e := n.cmap.Epoch
	if n.grantedEpoch > e {
		e = n.grantedEpoch
	}
	return e + 1
}

// claimEpoch wins a fresh epoch from a quorum (majority) of the
// current members, retrying with higher proposals when outbid. Because
// any two majorities intersect, at most one coordinator can win a
// given epoch while a quorum is reachable — the fencing that keeps
// concurrent JOIN/LEAVEs from minting rival maps at the same epoch.
//
// Every vote (grant or denial) also carries the voter's current map;
// the newest one is adopted before claimEpoch returns, so the
// coordinator mints its mutation from the freshest map any reachable
// member holds — a rival's just-installed, not-yet-broadcast map is
// picked up here instead of being silently overwritten at a higher
// epoch. Only a mutation whose minting coordinator is unreachable
// during the whole claim can still be superseded (see the single-
// partition limits in Map's doc).
func (n *Node) claimEpoch() (uint64, error) {
	var lastErr error
	for attempt := 0; attempt < epochClaimAttempts; attempt++ {
		if attempt > 0 {
			// Deterministic per-node stagger: coordinators that keep
			// outbidding each other back off by different amounts and
			// separate instead of livelocking.
			time.Sleep(time.Duration(attempt)*4*time.Millisecond +
				time.Duration(hash64(n.id)%7)*time.Millisecond)
		}
		propose := n.nextEpochProposal()
		members := n.currentMap().Members()
		quorum := len(members)/2 + 1
		var (
			mu      sync.Mutex
			grants  int
			highest uint64
			newest  *Map
			wg      sync.WaitGroup
		)
		tally := func(granted bool, h uint64, m *Map) {
			mu.Lock()
			defer mu.Unlock()
			if granted {
				grants++
			}
			if h > highest {
				highest = h
			}
			if m != nil && m.Newer(newest) {
				newest = m
			}
		}
		for _, mem := range members {
			if mem.ID == n.id {
				ok, h := n.grantEpoch(propose, n.id)
				tally(ok, h, nil)
				continue
			}
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				reply, err := n.peers.do(addr, "CLUSTER", "EPOCH", strconv.FormatUint(propose, 10), n.id)
				if err != nil {
					return // unreachable peer: no vote
				}
				fields := strings.Fields(reply)
				if len(fields) < 2 {
					return
				}
				h, _ := strconv.ParseUint(fields[1], 10, 64)
				m, _ := DecodeMap(fields[2:]) // best-effort; nil when the vote carries no usable map
				tally(fields[0] == "GRANTED", h, m)
			}(mem.Addr)
		}
		wg.Wait()
		if newest != nil && newest.Newer(n.currentMap()) {
			if err := n.installAndSync(newest); err != nil {
				lastErr = err
				continue
			}
		}
		if grants >= quorum {
			return propose, nil
		}
		n.observeEpoch(highest)
		lastErr = fmt.Errorf("cluster: epoch %d claim won %d/%d votes (quorum %d)",
			propose, grants, len(members), quorum)
	}
	return 0, lastErr
}

// peerMap pulls the cluster map one peer holds — the node's only
// CLUSTER MAP pull, shared by reconcileMap and Join.
func (n *Node) peerMap(addr string) (*Map, error) {
	reply, err := n.peers.do(addr, "CLUSTER", "MAP")
	if err != nil {
		return nil, fmt.Errorf("cluster: map from %s: %w", addr, err)
	}
	m, err := DecodeMap(strings.Fields(reply))
	if err != nil {
		return nil, fmt.Errorf("cluster: map from %s: %w", addr, err)
	}
	return m, nil
}

// reconcileMap settles a map mismatch with the one peer it was seen on:
// pull that peer's map, install it if it supersedes ours (running its
// digest round), and answer with one targeted SETMAP if the peer turns
// out to be the one behind. The two callers learn of the mismatch for
// free — a gossip reply whose triple supersedes ours but whose @map
// payload did not fit, and a -STALE refusal of a digest round's DSUM —
// so a converged cluster never pays a MAP pull.
func (n *Node) reconcileMap(addr string) error {
	theirs, err := n.peerMap(addr)
	if err != nil {
		return err
	}
	if err := n.installAndSync(theirs); err != nil {
		return err
	}
	if cur := n.currentMap(); cur.Newer(theirs) {
		_, err = n.peers.direct(addr, setmapCommand(cur)...)
	}
	return err
}

// setmapCommand renders the CLUSTER SETMAP command that installs m.
func setmapCommand(m *Map) []string {
	return append([]string{"CLUSTER", "SETMAP"}, strings.Fields(m.Encode())...)
}

// moveThenAnnounce finishes a membership change this node coordinates
// once it installed m — its pass, split around the SETMAP broadcast. Its
// drain goes first and hands the keys this node gave up to all their new
// owners (the XFER fence lets a sender ahead of the receiver's map in).
// Then the broadcast: every member drains and runs its rounds before it
// replies. Its own rounds go last, when every peer holds m. So a nil return
// means the cluster has converged on m, and, since every node drains
// before any round compares, a moved key costs the same pushes whichever
// node coordinates.
func (n *Node) moveThenAnnounce(m *Map, extraAddrs []string) error {
	if err := n.drainStrays(); err != nil {
		return err
	}
	if err := n.broadcast(m, extraAddrs); err != nil {
		return fmt.Errorf("broadcast: %w", err)
	}
	return n.syncRounds(true)
}

// broadcast sends SETMAP to every member of m except this node, plus any
// extra addresses (e.g. a node just removed from the map, best-effort so
// it learns to drain). Peers run their digest round before replying, so
// a nil return means the cluster has converged. Extra-address errors are
// ignored.
func (n *Node) broadcast(m *Map, extraAddrs []string) error {
	args := setmapCommand(m)
	var wg sync.WaitGroup
	members := m.Members()
	errs := make([]error, len(members))
	for i, mem := range members {
		if mem.ID == n.id {
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			_, errs[i] = n.peers.direct(addr, args...)
		}(i, mem.Addr)
	}
	for _, addr := range extraAddrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			n.peers.direct(addr, args...)
		}(addr)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// validToken guards the Go API against values the line protocol cannot
// carry: an element with whitespace would be added whole locally but
// split into several elements (or injected as a command) on remote
// owners, silently breaking the replicas-are-identical invariant.
func validToken(kind, s string) error {
	if !server.ValidToken(s) {
		return fmt.Errorf("cluster: %s %q must be non-empty and free of whitespace", kind, s)
	}
	return nil
}

func validKeys(keys []string) error {
	for _, k := range keys {
		if err := validToken("key", k); err != nil {
			return err
		}
	}
	return nil
}

// withStaleMapRetry runs op against the current map and, when it fails
// while a strictly newer map was installed concurrently, re-resolves
// once against the fresh map. This is the server-side mirror of the
// smart client's redirect budget: a forward that lands on a just-
// evicted owner mid-rebalance gets one second chance against the map
// that evicted it, instead of surfacing a transport error the caller
// would have to retry anyway. Bounded at one re-resolve — a second
// concurrent map change surfaces its error as before.
func (n *Node) withStaleMapRetry(op func(m *Map) error) error {
	m := n.currentMap()
	err := op(m)
	if err == nil {
		return nil
	}
	if cur := n.currentMap(); cur != m && cur.Newer(m) {
		return op(cur)
	}
	return err
}

// Add inserts elements into key on every owner node; it reports whether
// any owner's sketch changed. The elements are hashed once, here, into one
// sorted token batch (Store.Batch): this node's copy absorbs it, and every
// other owner gets its ELT3 bytes in a CLUSTER MLADD group and absorbs
// those, so all owners record the same tokens and replicas stay
// byte-identical (insertion order does not matter — the paper's
// reproducibility property). Keys and elements must be non-empty and
// whitespace-free, the line protocol's token rule: the elements no longer
// travel between nodes, but ClusterClient sends them on the wire, and one
// rule holds for both routes.
func (n *Node) Add(key string, elements ...string) (bool, error) {
	batch, err := n.batchOf("Add", key, elements)
	if err != nil {
		return false, err
	}
	var changed bool
	err = n.withStaleMapRetry(func(m *Map) error {
		var err error
		changed, err = n.addWith(m, key, &batch)
		return err
	})
	return changed, err
}

// batchOf checks a write's key and elements by the token rule and hashes
// the elements into their token batch; verb names the write in errors.
func (n *Node) batchOf(verb, key string, elements []string) (core.Hybrid, error) {
	if err := validToken("key", key); err != nil {
		return core.Hybrid{}, err
	}
	if len(elements) == 0 {
		// Reject before queueing: a batch of no tokens is refused by the
		// owners, and creates nothing anywhere.
		return core.Hybrid{}, fmt.Errorf("cluster: %s needs at least one element", verb)
	}
	for _, e := range elements {
		if err := validToken("element", e); err != nil {
			return core.Hybrid{}, err
		}
	}
	return n.store.Batch(elements)
}

// addWith is Add's fan-out against one specific map; re-sending to an
// owner that already applied the batch is harmless (absorbing tokens is
// idempotent), which is what makes the stale-map retry safe.
func (n *Node) addWith(m *Map, key string, batch *core.Hybrid) (bool, error) {
	var changed atomic.Bool
	err := n.eachOwner(m.Owners(key), func(o Member) error {
		var c bool
		var err error
		if o.ID == n.id {
			c, err = n.store.AddBatch(key, batch)
		} else {
			// Batched forwarding: concurrent Adds to the same owner
			// coalesce into one pipelined CLUSTER MLADD round trip.
			c, err = n.peers.batchAdd(o.Addr, key, batch)
		}
		if c {
			changed.Store(true)
		}
		return err
	})
	if err != nil {
		return false, err
	}
	return changed.Load(), nil
}

// eachOwner runs a forwarded write on every one of a key's owners and
// returns their errors joined. The last remote owner's write runs on the
// caller's goroutine, and so does this node's own, between the two; only
// a second remote owner's gets a goroutine — with a replica factor of 2,
// none does.
func (n *Node) eachOwner(owners []Member, write func(o Member) error) error {
	if len(owners) == 0 {
		return errors.New("cluster: empty cluster map (node not started?)")
	}
	local, last := -1, -1
	for i, o := range owners {
		if o.ID == n.id {
			local = i
		} else {
			last = i
		}
	}
	var async chan error
	pending := 0
	for i, o := range owners {
		if i == local || i == last {
			continue
		}
		if async == nil {
			async = make(chan error, len(owners))
		}
		pending++
		go func() { async <- write(o) }()
	}
	var buf [4]error
	errs := buf[:0]
	if local >= 0 {
		errs = append(errs, write(owners[local]))
	}
	if last >= 0 {
		errs = append(errs, write(owners[last]))
	}
	for ; pending > 0; pending-- {
		errs = append(errs, <-async)
	}
	return errors.Join(errs...) // nil when every write succeeded
}

// Count estimates the distinct count of the union of keys cluster-wide:
// every owner's copy of every key is fetched as a serialized sketch and
// merged locally. Fetching all replicas (not just primaries) is free
// correctness-wise — merging duplicates is idempotent — and masks a
// replica that missed a write.
func (n *Node) Count(keys ...string) (float64, error) {
	if err := validKeys(keys); err != nil {
		return 0, err
	}
	var acc *core.Hybrid
	err := n.withStaleMapRetry(func(m *Map) error {
		var err error
		acc, err = n.gather(m, keys)
		return err
	})
	if err != nil {
		return 0, err
	}
	if acc == nil {
		return 0, nil
	}
	return acc.Estimate(), nil
}

// ownerBlob is one owner's serialized copy of one key, as collected by
// gatherOwnerBlobs.
type ownerBlob struct {
	key     string
	ownerID string
	blob    []byte
}

// gatherOwnerBlobs fetches every owner's copy of every key as a
// serialized value blob. The DUMPs are batched per owner — all of an
// owner's keys go out as one pipelined request — so a multi-key fetch
// costs one round trip per owner, not one per (key, owner) pair.
// Owners are queried concurrently; missing keys are skipped. Both the
// plain (gather) and windowed (gatherWindows) scatter-gathers sit on
// this one scaffold and differ only in how they decode and merge.
func (n *Node) gatherOwnerBlobs(m *Map, keys []string) ([]ownerBlob, error) {
	type ownerJobs struct {
		owner Member
		keys  []string
	}
	var owners []*ownerJobs
	byID := make(map[string]*ownerJobs)
	for _, key := range keys {
		for _, o := range m.Owners(key) {
			oj, ok := byID[o.ID]
			if !ok {
				oj = &ownerJobs{owner: o}
				byID[o.ID] = oj
				owners = append(owners, oj)
			}
			oj.keys = append(oj.keys, key)
		}
	}
	blobs := make([][]ownerBlob, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, oj := range owners {
		wg.Add(1)
		go func(i int, oj *ownerJobs) {
			defer wg.Done()
			got := make([]ownerBlob, 0, len(oj.keys))
			if oj.owner.ID == n.id {
				for _, key := range oj.keys {
					if blob, ok := n.store.Dump(key); ok {
						got = append(got, ownerBlob{key, oj.owner.ID, blob})
					}
				}
				blobs[i] = got
				return
			}
			cmds := make([][]string, len(oj.keys))
			for j, key := range oj.keys {
				cmds[j] = []string{"DUMP", key}
			}
			results, err := n.peers.pipeline(oj.owner.Addr, cmds)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: dump from %s: %w", oj.owner.ID, err)
				return
			}
			for j, res := range results {
				if errors.Is(res.Err, server.ErrNoSuchKey) {
					continue
				}
				if res.Err != nil {
					errs[i] = fmt.Errorf("cluster: dump %q from %s: %w", oj.keys[j], oj.owner.ID, res.Err)
					return
				}
				blob, err := base64.StdEncoding.DecodeString(res.Value)
				if err != nil {
					errs[i] = fmt.Errorf("cluster: dump %q from %s: %w", oj.keys[j], oj.owner.ID, err)
					return
				}
				got = append(got, ownerBlob{oj.keys[j], oj.owner.ID, blob})
			}
			blobs[i] = got
		}(i, oj)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var out []ownerBlob
	for _, group := range blobs {
		out = append(out, group...)
	}
	return out, nil
}

// gather fetches every owner's sketch for every key (one pipelined
// batch per owner, see gatherOwnerBlobs) and merges them into one
// sketch (nil if no key exists anywhere). Blobs merge as the owners
// hold them: token sets unite and stay sparse below break-even, a token
// blob is replayed into dense registers, never expanded first. A
// windowed key surfaces the store's WRONGTYPE error rather than merging
// garbage.
func (n *Node) gather(m *Map, keys []string) (*core.Hybrid, error) {
	blobs, err := n.gatherOwnerBlobs(m, keys)
	if err != nil {
		return nil, err
	}
	var acc *core.Hybrid
	err = eachDistinctCopy(blobs, func(b ownerBlob) error {
		if window.IsSerialized(b.blob) {
			return fmt.Errorf("cluster: sketch %q from %s: %w", b.key, b.ownerID, server.ErrWrongType)
		}
		sk, err := core.HybridFromBinary(b.blob)
		if err != nil {
			return fmt.Errorf("cluster: sketch %q from %s: %w", b.key, b.ownerID, err)
		}
		if acc == nil {
			acc = sk
			return nil
		}
		return acc.Merge(sk)
	})
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// eachDistinctCopy calls merge for every gathered blob but those that are,
// byte for byte, the first copy of their key it was called for. Blobs are
// canonical — "ELT3" tokens, and "ELW1" rings of them — so a replica in step
// with a copy already merged sends the very same bytes and has nothing to
// add: with every owner in step a key is decoded once, not once a replica.
func eachDistinctCopy(blobs []ownerBlob, merge func(ownerBlob) error) error {
	first := make(map[string][]byte) // key -> the first copy merged
	for _, b := range blobs {
		if f, seen := first[b.key]; !seen {
			first[b.key] = b.blob
		} else if bytes.Equal(f, b.blob) {
			continue
		}
		if err := merge(b); err != nil {
			return err
		}
	}
	return nil
}

// WindowAdd inserts elements observed at the unix-millisecond
// timestamp ts into the windowed key on every owner node; it returns
// how many elements the primary owner accepted. Like Add it hashes the
// elements once into a token batch that every owner absorbs into the
// slice of ts, so replicas' rings stay identical — slice assignment is a
// pure function of the timestamp. Keys and elements must be non-empty
// and whitespace-free, for the reason Add gives. Every node must share
// one window geometry (elld's -window-slice/-window-slices), like the
// sketch configuration.
func (n *Node) WindowAdd(key string, tsMillis int64, elements ...string) (int, error) {
	batch, err := n.batchOf("WindowAdd", key, elements)
	if err != nil {
		return 0, err
	}
	var accepted int
	err = n.withStaleMapRetry(func(m *Map) error {
		var err error
		accepted, err = n.windowAddWith(m, key, tsMillis, &batch, len(elements))
		return err
	})
	return accepted, err
}

// windowAddWith is WindowAdd's fan-out of the batch of cnt elements
// against one specific map; re-sending is harmless (slice merges are
// idempotent, slice assignment is a pure function of the timestamp),
// making the stale-map retry safe.
func (n *Node) windowAddWith(m *Map, key string, tsMillis int64, batch *core.Hybrid, cnt int) (int, error) {
	owners := m.Owners(key)
	var accepted int
	err := n.eachOwner(owners, func(o Member) error {
		var a int
		var err error
		if o.ID == n.id {
			a, err = n.store.WindowAddBatch(key, tsMillis, batch, cnt)
		} else {
			// Batched forwarding: concurrent WindowAdds (and plain Adds)
			// to the same owner coalesce into one pipelined CLUSTER MLADD
			// round trip.
			a, err = n.peers.batchWAdd(o.Addr, key, tsMillis, batch, cnt)
		}
		if o.ID == owners[0].ID { // the one write that sets it
			accepted = a
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	return accepted, nil
}

// WindowCount estimates the distinct count the windowed key observed
// over the window ending at tsMillis (0: the newest timestamp any
// owner observed) — cluster-wide: every owner's ring is fetched as a
// slot-wise DUMP and merged slice by slice at this coordinator, so the
// union is exact at slice granularity. Fetching all replicas is free
// correctness-wise (slice merges are idempotent) and masks a replica
// that missed a write.
func (n *Node) WindowCount(key string, win time.Duration, tsMillis int64) (float64, error) {
	if win <= 0 {
		return 0, fmt.Errorf("cluster: window %v must be positive", win)
	}
	if err := validToken("key", key); err != nil {
		return 0, err
	}
	var acc *window.Counter
	err := n.withStaleMapRetry(func(m *Map) error {
		var err error
		acc, err = n.gatherWindows(m, []string{key})
		return err
	})
	if err != nil {
		return 0, err
	}
	if acc == nil {
		return 0, nil
	}
	now := acc.Latest()
	if tsMillis != 0 {
		now = time.UnixMilli(tsMillis)
	}
	if now.IsZero() {
		return 0, nil
	}
	return acc.Estimate(now, win), nil
}

// WindowInfo describes the cluster-wide merged ring of the windowed
// key (geometry, newest timestamp, summed Dropped statistic, full-span
// estimate). A key no owner holds is server.ErrNoSuchKey.
func (n *Node) WindowInfo(key string) (string, error) {
	if err := validToken("key", key); err != nil {
		return "", err
	}
	var acc *window.Counter
	err := n.withStaleMapRetry(func(m *Map) error {
		var err error
		acc, err = n.gatherWindows(m, []string{key})
		return err
	})
	if err != nil {
		return "", err
	}
	if acc == nil {
		return "", fmt.Errorf("cluster: %w", server.ErrNoSuchKey)
	}
	return acc.Describe(), nil
}

// gatherWindows is gather's windowed sibling on the same
// gatherOwnerBlobs scaffold: every owner's copy arrives as a slot-wise
// window DUMP and the rings merge slice by slice into one counter (nil
// if no key exists anywhere). A plain-sketch key surfaces the store's
// WRONGTYPE error rather than merging garbage.
func (n *Node) gatherWindows(m *Map, keys []string) (*window.Counter, error) {
	blobs, err := n.gatherOwnerBlobs(m, keys)
	if err != nil {
		return nil, err
	}
	var acc *window.Counter
	err = eachDistinctCopy(blobs, func(b ownerBlob) error {
		if !window.IsSerialized(b.blob) {
			return fmt.Errorf("cluster: window dump %q from %s: %w", b.key, b.ownerID, server.ErrWrongType)
		}
		c, err := window.FromBinary(b.blob)
		if err != nil {
			return fmt.Errorf("cluster: window dump %q from %s: %w", b.key, b.ownerID, err)
		}
		if acc == nil {
			acc = c
			return nil
		}
		return acc.Merge(c)
	})
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// MergeKeys stores the cluster-wide union of the source keys (and dest's
// current value) at dest, replicated to all of dest's owners.
func (n *Node) MergeKeys(dest string, sources ...string) error {
	if err := validKeys(append([]string{dest}, sources...)); err != nil {
		return err
	}
	m := n.currentMap()
	acc, err := n.gather(m, append(append([]string{}, sources...), dest))
	if err != nil {
		return err
	}
	if acc == nil {
		if acc, err = core.NewHybrid(n.store.Config()); err != nil {
			return err
		}
	}
	blob, err := acc.MarshalBinary()
	if err != nil {
		return err
	}
	return n.absorbAll(m.Owners(dest), dest, blob)
}

// absorbAll merges blob into key on every given owner, imposing no
// deadline (ABSORB's 0): a destination that already has a lifetime
// keeps it.
func (n *Node) absorbAll(owners []Member, key string, blob []byte) error {
	b64 := base64.StdEncoding.EncodeToString(blob)
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, o := range owners {
		wg.Add(1)
		go func(i int, o Member) {
			defer wg.Done()
			if o.ID == n.id {
				errs[i] = n.store.MergeBlob(key, blob)
				return
			}
			_, errs[i] = n.peers.do(o.Addr, "CLUSTER", "ABSORB", key, b64, "0")
		}(i, o)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Del removes key from all of its owners; it reports whether any owner
// had it.
func (n *Node) Del(key string) (bool, error) {
	if err := validToken("key", key); err != nil {
		return false, err
	}
	var existed bool
	err := n.withStaleMapRetry(func(m *Map) error {
		var err error
		existed, err = n.delWith(m, key)
		return err
	})
	return existed, err
}

// delWith is Del's fan-out against one specific map; deleting an
// already-deleted key is a no-op, so the stale-map retry is safe.
func (n *Node) delWith(m *Map, key string) (bool, error) {
	owners := m.Owners(key)
	existed := make([]bool, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, o := range owners {
		wg.Add(1)
		go func(i int, o Member) {
			defer wg.Done()
			if o.ID == n.id {
				existed[i] = n.store.Delete(key)
				return
			}
			reply, err := n.peers.do(o.Addr, "CLUSTER", "LDEL", key)
			errs[i] = err
			existed[i] = reply == "1"
		}(i, o)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return false, err
	}
	for _, e := range existed {
		if e {
			return true, nil
		}
	}
	return false, nil
}

// AllKeys returns the union of every member's local keys, sorted.
func (n *Node) AllKeys() ([]string, error) {
	m := n.currentMap()
	members := m.Members()
	results := make([][]string, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, mem := range members {
		wg.Add(1)
		go func(i int, mem Member) {
			defer wg.Done()
			if mem.ID == n.id {
				results[i] = n.store.Keys()
				return
			}
			reply, err := n.peers.do(mem.Addr, "CLUSTER", "LKEYS")
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = strings.Fields(reply)
		}(i, mem)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	seen := make(map[string]struct{})
	for _, keys := range results {
		for _, k := range keys {
			seen[k] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// --- protocol handlers -------------------------------------------------

func (n *Node) handlePFAdd(args []string) string {
	if len(args) < 2 {
		return "-ERR PFADD needs a key and at least one element"
	}
	if reply, ok := n.moved(args[0]); ok {
		return reply
	}
	changed, err := n.Add(args[0], args[1:]...)
	if err != nil {
		return "-ERR " + err.Error()
	}
	if changed {
		return ":1"
	}
	return ":0"
}

func (n *Node) handlePFCount(args []string) string {
	if len(args) < 1 {
		return "-ERR PFCOUNT needs at least one key"
	}
	// Only the single-key form is redirectable: a multi-key count is a
	// scatter-gather with no single owner to point the client at.
	if len(args) == 1 {
		if reply, ok := n.moved(args[0]); ok {
			return reply
		}
	}
	v, err := n.Count(args...)
	if err != nil {
		return "-ERR " + err.Error()
	}
	return fmt.Sprintf(":%d", int64(v+0.5))
}

func (n *Node) handlePFMerge(args []string) string {
	if len(args) < 2 {
		return "-ERR PFMERGE needs a destination and at least one source"
	}
	if err := n.MergeKeys(args[0], args[1:]...); err != nil {
		return "-ERR " + err.Error()
	}
	return "+OK"
}

func (n *Node) handleWAdd(args []string) string {
	if len(args) < 3 {
		return "-ERR WADD needs a key, a unix-millisecond timestamp and at least one element"
	}
	ts, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return "-ERR WADD timestamp must be an integer (unix milliseconds)"
	}
	if reply, ok := n.moved(args[0]); ok {
		return reply
	}
	accepted, err := n.WindowAdd(args[0], ts, args[2:]...)
	if err != nil {
		return "-ERR " + err.Error()
	}
	return ":" + strconv.Itoa(accepted)
}

func (n *Node) handleWCount(args []string) string {
	if len(args) < 2 || len(args) > 3 {
		return "-ERR WCOUNT needs a key and a window duration (plus an optional unix-millisecond timestamp)"
	}
	win, err := time.ParseDuration(args[1])
	if err != nil || win <= 0 {
		return "-ERR WCOUNT window must be a positive duration like 30s or 5m"
	}
	var ts int64
	if len(args) == 3 {
		if ts, err = strconv.ParseInt(args[2], 10, 64); err != nil {
			return "-ERR WCOUNT timestamp must be an integer (unix milliseconds)"
		}
	}
	if reply, ok := n.moved(args[0]); ok {
		return reply
	}
	v, err := n.WindowCount(args[0], win, ts)
	if err != nil {
		return "-ERR " + err.Error()
	}
	return ":" + strconv.FormatInt(int64(v+0.5), 10)
}

func (n *Node) handleWInfo(args []string) string {
	if len(args) != 1 {
		return "-ERR WINFO needs exactly one key"
	}
	if reply, ok := n.moved(args[0]); ok {
		return reply
	}
	info, err := n.WindowInfo(args[0])
	if errors.Is(err, server.ErrNoSuchKey) {
		// Verbatim, so clients map it back to ErrNoSuchKey.
		return "-ERR " + server.ErrNoSuchKey.Error()
	}
	if err != nil {
		return "-ERR " + err.Error()
	}
	return "+" + info
}

func (n *Node) handleDel(args []string) string {
	if len(args) != 1 {
		return "-ERR DEL needs exactly one key"
	}
	if reply, ok := n.moved(args[0]); ok {
		return reply
	}
	existed, err := n.Del(args[0])
	if err != nil {
		return "-ERR " + err.Error()
	}
	if existed {
		return ":1"
	}
	return ":0"
}

func (n *Node) handleKeys(args []string) string {
	keys, err := n.AllKeys()
	if err != nil {
		return "-ERR " + err.Error()
	}
	return "+" + strings.Join(keys, " ")
}

// handleClusterBytes takes MLADD, the one CLUSTER verb on the request
// path, and XFER, whose frames are the largest lines there are, as the
// bytes they arrived in; the others get strings.
func (n *Node) handleClusterBytes(reply []byte, args [][]byte) []byte {
	switch {
	case len(args) > 0 && bytes.EqualFold(args[0], []byte("MLADD")):
		return n.handleMLAdd(reply, args[1:])
	case len(args) > 0 && bytes.EqualFold(args[0], []byte("XFER")):
		return n.handleXfer(reply, args[1:])
	}
	return append(reply, n.handleCluster(server.StringArgs(args))...)
}

func (n *Node) handleCluster(args []string) string {
	if len(args) == 0 {
		return "-ERR CLUSTER needs a subcommand"
	}
	sub := strings.ToUpper(args[0])
	rest := args[1:]
	switch sub {
	case "INFO":
		m := n.currentMap()
		return fmt.Sprintf("+id=%s addr=%s e=%d v=%d replicas=%d nodes=%d keys=%d rebal=%d",
			n.id, n.Addr(), m.Epoch, m.Version, m.Replicas, m.Len(), n.store.Len(), n.pushes.Load())
	case "MAP":
		// Counted as a refetch: under strict routing this is the verb
		// stale smart clients issue after a -MOVED, so moved_replies vs
		// map_refetches shows whether redirects are converging. A peer
		// pulls it only while its map differs (reconcileMap), so on a
		// converged cluster the counter moves with clients alone.
		n.mapRefetches.Add(1)
		return "+" + n.currentMap().Encode()
	case "JOIN":
		if len(rest) != 2 {
			return "-ERR CLUSTER JOIN needs an ID and an address"
		}
		return n.handleJoin(rest[0], rest[1])
	case "LEAVE":
		if len(rest) != 1 {
			return "-ERR CLUSTER LEAVE needs a node ID"
		}
		return n.handleLeave(rest[0])
	case "SETMAP":
		m, err := DecodeMap(rest)
		if err != nil {
			return "-ERR " + err.Error()
		}
		if err := n.installAndSync(m); err != nil {
			return "-ERR sync: " + err.Error()
		}
		return "+OK"
	case "EPOCH":
		if len(rest) != 2 {
			return "-ERR CLUSTER EPOCH needs an epoch and a coordinator ID"
		}
		e, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			return fmt.Sprintf("-ERR bad epoch %q", rest[0])
		}
		if !validID(rest[1]) {
			return fmt.Sprintf("-ERR invalid coordinator ID %q", rest[1])
		}
		// Either way the reply carries this node's current map, so the
		// claiming coordinator mints its mutation from the newest map
		// any voter has seen instead of a stale local parent.
		if ok, highest := n.grantEpoch(e, rest[1]); !ok {
			return fmt.Sprintf("+DENIED %d %s", highest, n.currentMap().Encode())
		}
		return fmt.Sprintf("+GRANTED %d %s", e, n.currentMap().Encode())
	case "DSUM":
		return n.handleDigestSum(rest)
	case "DKEYS":
		return n.handleDigestKeys(rest)
	case "GOSSIP":
		return n.handleGossip(rest)
	case "HEALTH":
		return n.handleHealth()
	case "STATS":
		return n.handleClusterStats(rest)
	case "LDEL":
		if len(rest) != 1 {
			return "-ERR CLUSTER LDEL needs exactly one key"
		}
		if n.store.Delete(rest[0]) {
			return ":1"
		}
		return ":0"
	case "LEXPIREAT":
		if len(rest) != 2 {
			return "-ERR CLUSTER LEXPIREAT needs a key and a unix-millisecond deadline"
		}
		dl, err := strconv.ParseInt(rest[1], 10, 64)
		if err != nil || dl <= 0 || dl > server.MaxDeadlineMillis {
			return fmt.Sprintf("-ERR bad CLUSTER LEXPIREAT deadline %q", rest[1])
		}
		if n.store.ExpireAt(rest[0], dl) {
			return ":1"
		}
		return ":0"
	case "LDEADLINE":
		if len(rest) != 1 {
			return "-ERR CLUSTER LDEADLINE needs exactly one key"
		}
		dl, ok := n.store.DeadlineOf(rest[0])
		if !ok {
			// Verbatim, so the gather path maps it back to ErrNoSuchKey.
			return "-ERR " + server.ErrNoSuchKey.Error()
		}
		return ":" + strconv.FormatInt(dl, 10)
	case "LPERSIST":
		if len(rest) != 1 {
			return "-ERR CLUSTER LPERSIST needs exactly one key"
		}
		if n.store.Persist(rest[0]) {
			return ":1"
		}
		return ":0"
	case "LKEYS":
		return "+" + strings.Join(n.store.Keys(), " ")
	case "ABSORB":
		// PFMERGE's absorbAll is the one sender. The third argument is an
		// expiry deadline to impose (unix milliseconds); absorbAll sends
		// 0, none, so a destination keeps its own lifetime.
		if len(rest) != 3 {
			return "-ERR CLUSTER ABSORB needs a key, a base64 payload and a deadline"
		}
		blob, err := base64.StdEncoding.DecodeString(rest[1])
		if err != nil {
			return "-ERR bad base64: " + err.Error()
		}
		deadline, err := strconv.ParseInt(rest[2], 10, 64)
		if err != nil || deadline < 0 || deadline > server.MaxDeadlineMillis {
			return fmt.Sprintf("-ERR bad CLUSTER ABSORB deadline %q", rest[2])
		}
		if err := n.store.MergeBlobDeadline(rest[0], blob, deadline); err != nil {
			return "-ERR " + err.Error()
		}
		return "+OK"
	default:
		return "-ERR unknown CLUSTER subcommand " + sub
	}
}

// handleMLAdd executes a batched local add — the one forwarded-add
// verb: what lets many concurrent forwarded PFADDs and WADDs share one
// round trip yet each learn its own outcome. A batch carries g groups,
// plain and windowed interleaved, each the token batch the coordinator
// hashed the elements into (Store.Batch), as the base64 of its ELT3 (or,
// past break-even, dense) bytes:
//
//	p <key> <batch>             (plain add)
//	w <key> <ts> <n> <batch>    (windowed add of n elements, unix-ms timestamp)
//
// The reply is '+' followed by one space-separated token per group, in
// order: a plain group answers its changed-bit ('0'/'1'), a windowed
// group its accepted count, and either kind answers 'E' when the owner
// refused it: a key of the other value type or of another sketch
// configuration, or a batch that is not base64 of a blob the core
// decoder accepts, or holds no token. One refused group must NOT fail
// the whole batch: the other groups belong to unrelated callers coalesced
// by the group-commit batcher, and earlier groups have already been
// applied. Only framing corruption (which poisons everything after it)
// aborts with -ERR. This is the receiving end of every forwarded write,
// so rest is the line's own bytes, and the outcomes are appended to
// reply.
func (n *Node) handleMLAdd(reply []byte, rest [][]byte) []byte {
	if len(rest) < 1 {
		return append(reply, "-ERR CLUSTER MLADD needs a group count"...)
	}
	// Each group needs at least 3 tokens (type, key, batch), so a count
	// beyond (len(rest)-1)/3 cannot be satisfied (wire input is
	// untrusted).
	g, ok := server.ParseIntBytes(rest[0])
	if !ok || g < 1 || g > int64(len(rest)-1)/3 {
		return mlAddBad(reply, "group count", rest[0])
	}
	reply = append(reply, '+')
	i := 1
	for ; g > 0; g-- {
		// A group: type, key, a windowed group's timestamp and element
		// count, the batch.
		size := 3
		switch {
		case i == len(rest):
		case string(rest[i]) == "w":
			size = 5
		case string(rest[i]) != "p":
			return mlAddBad(reply, "group type", rest[i])
		}
		if len(rest)-i < size {
			return append(reply[:0], mlAddTruncated...)
		}
		key, blob := rest[i+1], rest[i+size-1]
		if size == 3 {
			reply = n.mlAddPlain(reply, key, blob)
		} else {
			ts, ok := server.ParseIntBytes(rest[i+2])
			if !ok {
				return mlAddBad(reply, "timestamp", rest[i+2])
			}
			cnt, ok := server.ParseIntBytes(rest[i+3])
			if !ok || cnt < 1 {
				return mlAddBad(reply, "element count", rest[i+3])
			}
			reply = n.mlAddWindow(reply, key, ts, cnt, blob)
		}
		reply = append(reply, ' ')
		i += size
	}
	if i != len(rest) {
		return append(reply[:0], "-ERR trailing tokens after CLUSTER MLADD groups"...)
	}
	return reply[:len(reply)-1] // without the last group's separator
}

// mlAddPlain applies one plain MLADD group and appends its outcome.
func (n *Node) mlAddPlain(reply, key, b64 []byte) []byte {
	var raw [mlAddRawBytes]byte
	var words [mlAddRawBytes / 8]uint64
	changed := false
	batch, err := decodeBatch(raw[:], words[:], b64)
	if err == nil {
		changed, err = n.store.AddBatchBytes(key, &batch)
	}
	switch {
	case err != nil:
		return append(reply, 'E')
	case changed:
		return append(reply, '1')
	default:
		return append(reply, '0')
	}
}

// mlAddWindow applies one windowed MLADD group and appends its outcome.
func (n *Node) mlAddWindow(reply, key []byte, ts, cnt int64, b64 []byte) []byte {
	var raw [mlAddRawBytes]byte
	var words [mlAddRawBytes / 8]uint64
	accepted := 0
	batch, err := decodeBatch(raw[:], words[:], b64)
	if err == nil {
		accepted, err = n.store.WindowAddBatchBytes(key, ts, &batch, int(cnt))
	}
	if err != nil {
		return append(reply, 'E')
	}
	return strconv.AppendInt(reply, int64(accepted), 10)
}

// mlAddRawBytes is how large a group's blob may be to be decoded on the
// stack, as appendBatch encodes it there on the sending side.
const mlAddRawBytes = 512

// decodeBatch decodes a group's base64 batch, through raw and into words
// when it fits, with the core decoder: a blob it would refuse from DUMP or
// RESTORE it refuses here.
func decodeBatch(raw []byte, words []uint64, b64 []byte) (core.Hybrid, error) {
	if m := base64.StdEncoding.DecodedLen(len(b64)); m > len(raw) {
		raw = make([]byte, m)
	}
	k, err := base64.StdEncoding.Decode(raw, b64)
	if err != nil {
		return core.Hybrid{}, err
	}
	return core.DecodeBatch(raw[:k], words)
}

const mlAddTruncated = "-ERR truncated CLUSTER MLADD group"

func mlAddBad(reply []byte, what string, tok []byte) []byte {
	return fmt.Appendf(reply[:0], "-ERR bad CLUSTER MLADD %s %q", what, tok)
}

// joinOutcome renders the final JOIN reply by re-reading the current
// map: +OK when the mutation is reflected in it (whoever minted it),
// +SUPERSEDED with the winning map's ordering triple when a rival map
// erased the mutation before the handler could return — the feedback
// channel that turns the epoch order's deterministic-but-silent losses
// into something an operator (or Join caller) can act on. A node that
// re-enters after an auto-eviction is told so.
func (n *Node) joinOutcome(id, addr string) string {
	m := n.currentMap()
	if m.Addr(id) != addr {
		return "+SUPERSEDED " + m.Triple()
	}
	return "+OK " + m.Triple() + n.rejoinNote(id)
}

// rejoinNote returns " rejoined-after-eviction=e<epoch>" when this node
// auto-evicted id earlier and id is now coming back, else "". The
// record is consumed: the note is delivered once.
func (n *Node) rejoinNote(id string) string {
	n.gsp.mu.Lock()
	defer n.gsp.mu.Unlock()
	if e, ok := n.gsp.evictedAt[id]; ok {
		delete(n.gsp.evictedAt, id)
		return fmt.Sprintf(" rejoined-after-eviction=e%d", e)
	}
	return ""
}

func (n *Node) handleJoin(id, addr string) string {
	if !validID(id) {
		return fmt.Sprintf("-ERR invalid node ID %q", id)
	}
	if strings.ContainsAny(addr, " \t\r\n=") || addr == "" {
		return fmt.Sprintf("-ERR invalid node address %q", addr)
	}
	n.mutateMu.Lock()
	defer n.mutateMu.Unlock()
	for attempt := 0; attempt < mutateAttempts; attempt++ {
		if m := n.currentMap(); m.Addr(id) == addr {
			return "+OK " + m.Triple() + n.rejoinNote(id) // idempotent re-join
		}
		epoch, err := n.claimEpoch()
		if err != nil {
			return "-ERR claim epoch: " + err.Error()
		}
		cur := n.currentMap() // re-read: the freshest map wins the race with other coordinators
		if cur.Addr(id) == addr {
			return "+OK " + cur.Triple() + n.rejoinNote(id)
		}
		newMap := cur.withNode(id, addr, epoch, n.id)
		if !n.swapMap(newMap) {
			continue // a newer map landed between claim and install; retry
		}
		if err := n.moveThenAnnounce(newMap, nil); err != nil {
			return "-ERR " + err.Error()
		}
		return n.joinOutcome(id, addr)
	}
	return "+SUPERSEDED " + n.currentMap().Triple()
}

// leaveOutcome is joinOutcome's LEAVE counterpart: +OK when id is gone
// from the current map, +SUPERSEDED with the winner's triple when a
// rival map re-established it.
func (n *Node) leaveOutcome(id string) string {
	m := n.currentMap()
	if m.Has(id) {
		return "+SUPERSEDED " + m.Triple()
	}
	return "+OK " + m.Triple()
}

func (n *Node) handleLeave(id string) string {
	n.mutateMu.Lock()
	defer n.mutateMu.Unlock()
	for attempt := 0; attempt < mutateAttempts; attempt++ {
		if m := n.currentMap(); !m.Has(id) {
			return "+OK " + m.Triple() // idempotent re-leave
		}
		epoch, err := n.claimEpoch()
		if err != nil {
			return "-ERR claim epoch: " + err.Error()
		}
		cur := n.currentMap()
		if !cur.Has(id) {
			return "+OK " + cur.Triple()
		}
		oldAddr := cur.Addr(id)
		newMap := cur.withoutNode(id, epoch, n.id)
		if !n.swapMap(newMap) {
			continue
		}
		// Tell the departing node too (best-effort: it may be dead) so a
		// live leaver drains its keys to the remaining owners.
		if err := n.moveThenAnnounce(newMap, []string{oldAddr}); err != nil {
			return "-ERR " + err.Error()
		}
		return n.leaveOutcome(id)
	}
	return "+SUPERSEDED " + n.currentMap().Triple()
}

// RebalancePushes returns the cumulative number of keys this node shipped
// because of a membership change — by the digest round a map install
// started, one per (key, owner) a peer merged — or as strays it drained:
// the cost observable that shows a membership change moving only the keys
// whose owners changed, not every key. (They travel framed; see
// TransferStats for the resulting message counts.)
func (n *Node) RebalancePushes() uint64 { return n.pushes.Load() }

// SetPeerTimeout bounds every peer command (forwards, scatter-gather,
// gossip, map broadcasts, transfer frames) with one I/O deadline per
// command: dials, writes and reply reads past d fail as TRANSPORT
// errors, dropping the cached connection and feeding the failure
// detector — a black-holed peer can no longer hang an operation
// forever. It applies to connections dialed after the call (elld sets
// it before Start); d ≤ 0 disables deadlines.
func (n *Node) SetPeerTimeout(d time.Duration) { n.peers.setTimeout(d) }

// setFaultHook installs f as this node's outbound fault hook (nil
// disables). Every outgoing peer command — pooled, or on a connection of
// its own (pool.direct) — consults it first; a non-nil error
// aborts the send, simulating a partition or delaying a message. Test
// harness support: set before Start, never while serving.
func (n *Node) setFaultHook(f func(addr string, parts []string) error) { n.peers.hook = f }
