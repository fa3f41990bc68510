package cluster

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
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
// server.Server and is that server's keyspace (server.Keyspace): the
// server's one front end parses and answers PFADD / PFCOUNT / PFMERGE /
// WADD / WCOUNT / WINFO / DEL / EXPIRE / PEXPIRE / TTL / PERSIST / KEYS as
// it does standalone, and the node gives them cluster-wide semantics. It
// adds the CLUSTER subcommands:
//
//	CLUSTER INFO                       → +id=.. addr=.. h=.. d=.. replicas=.. nodes=.. keys=.. pushes=..
//	CLUSTER MAP                        → +v4 <replicas> <id>=<addr>=<counter> ...
//	CLUSTER JOIN <id> <addr>           → +OK h=.. d=.. (puts the node in, runs the pass, broadcasts)
//	                                     or -ERR sync: .. (the change stands; its pass failed)
//	CLUSTER LEAVE <id>                 → +OK h=.. d=.. / -ERR sync: .. (as JOIN, putting the node out)
//	CLUSTER SETMAP <v4 payload>        → +OK (join it into the node's map, then run a digest round if that changed it)
//	                                     or -ERR sync: .. (the round failed; the joined map stays installed)
//	CLUSTER GOSSIP <g2 digest>         → +<g2 digest> (push-pull failure-detector exchange; internal)
//	CLUSTER HEALTH                     → +round=.. quorum=.. member=.. <id>=<state>,hb=..,heard=..,sus=.. ...
//	CLUSTER MLADD p <key> <batch>      → :1/:0 (local add of a token batch; the internal replication verb)
//	CLUSTER MLADD w <key> <ts> <n> <b> → :<accepted> (local window add of the batch b of n elements; internal)
//	CLUSTER LDEL <key>                 → :1/:0 (local delete; internal)
//	CLUSTER LEXPIREAT <key> <ms>       → :1/:0 (local absolute-deadline arm; internal, see lifecycle.go)
//	CLUSTER LDEADLINE <key>            → :<ms> (local deadline read; internal)
//	CLUSTER LPERSIST <key>             → :1/:0 (local deadline clear; internal)
//	CLUSTER LKEYS                      → +<keys> (local keys; internal)
//	CLUSTER DSUM|DKEYS ...             → digest round exchanges (internal; see digestsync.go)
//	CLUSTER XFER FRAME h=<height> <b64> → +OK | -STALE h=.. (merge one frame of records: data movement and PFMERGE; internal, see transfer.go)
//
// A membership change moves data one way only: every node whose map it
// changes drains the keys it no longer owns and runs a digest round
// against its peers (installAndSync), before it answers the SETMAP.
//
// EXPIRE / PEXPIRE / TTL / PERSIST compute the absolute deadline once, on
// the coordinator, and replicate that instant to every owner (see
// lifecycle.go).
//
// Any node answers any command: writes are forwarded to all of the key's
// owners (chosen by the map's rendezvous hashing), and counts scatter DUMP
// requests to the owners and merge the serialized sketches locally.
// DUMP / RESTORE / INFO / SAVE remain node-local, which is exactly what
// the scatter-gather path relies on.
//
// Membership changes need no agreement (see Map): a coordinator applies
// the change to its own map and spreads the result, and every node joins
// what it is sent into what it holds, so concurrent JOIN/LEAVEs through
// different coordinators converge to one map holding all of them. The
// current map is mirrored into the store's metadata blob,
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

	// mu guards cmap. Every change to it — a join of a map another node
	// sent, a JOIN or LEAVE this node coordinates — is made under mu on
	// the map it replaces, so no change overwrites another.
	mu   sync.RWMutex
	cmap *Map

	// gsp is the gossip failure detector (see gossip.go). Its lock is
	// ordered strictly after mu: detector code may read the map, map code
	// never touches detector state.
	gsp gossipState

	// xfer is the transfer pipeline's window and counters (see
	// transfer.go).
	xfer transferState
}

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
	n := &Node{id: id, store: store, peers: newPool(dialTCP)}
	// Every pooled peer command runs under a deadline, so a black-holed
	// peer surfaces as a transport error (suspicion fuel) instead of
	// hanging a forward forever. SetPeerTimeout tunes it (elld
	// -peer-timeout).
	n.peers.setTimeout(defaultPeerTimeout)
	n.gsp.suspectAfter = suspectAfter
	n.xfer.window = xferWindow
	n.gsp.peers = make(map[string]*peerState)
	// Any successful peer command is liveness evidence; feed it to the
	// failure detector so steady traffic keeps refuting suspicion.
	n.peers.alive = n.markAlive
	n.srv = server.NewServer(store)
	n.srv.SetKeyspace(n)
	for _, v := range clusterVerbs {
		n.srv.Handle("CLUSTER "+v.sub, v.min, v.max, v.usage, func(reply []byte, args [][]byte) []byte {
			return v.handle(n, reply, args)
		})
	}
	// Empty until Start learns the bound address: the join's bottom.
	n.cmap = build(replicas, nil)
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return n.serve(ln)
}

// serve is Start on a listener of the caller's.
func (n *Node) serve(ln net.Listener) error {
	if err := n.srv.Serve(ln); err != nil {
		return err
	}
	actual := n.srv.Addr()
	// A persisted map may record a stale address for this node (it
	// came back on a different port). That is harmless — every
	// internal path routes to self by ID, never by address — and
	// Rejoin announces the real address.
	m := n.persistedMap()
	if m == nil {
		m = NewMap(n.currentMap().Replicas, Member{ID: n.id, Addr: actual})
	}
	n.swapMap(m)
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
	reply, err := n.peers.do(seedAddr, "CLUSTER", "JOIN", n.id, n.Addr())
	if err != nil {
		return fmt.Errorf("cluster: join via %s: %w", seedAddr, err)
	}
	if !strings.HasPrefix(reply, "OK") {
		return fmt.Errorf("cluster: join via %s: unexpected reply %q", seedAddr, reply)
	}
	// Pull the seed's map explicitly: on an idempotent re-join (this node
	// was already a member, e.g. it restarted) the seed does not
	// re-broadcast, so without this a restarted node would keep its stale
	// self-only map. The round that follows its install pushes any
	// locally restored sketches to their current owners.
	m, err := n.peers.fetchMap(seedAddr)
	if err != nil {
		return err
	}
	if err := n.installAndSync(m); err != nil {
		return fmt.Errorf("cluster: sync after join: %w", err)
	}
	return nil
}

// Leave gracefully exits the cluster: this node puts itself out of its
// map, drains every local sketch to its new owners (safe to re-send —
// merging is idempotent), then broadcasts the map to the remaining
// members, each of which runs its digest round before replying. When Leave returns nil the remaining members have
// converged on the new map and this node holds nothing.
func (n *Node) Leave() error {
	reply := n.coordinateLeave(n.id)
	if !strings.HasPrefix(reply, "+OK") {
		return fmt.Errorf("cluster: leave: %s", strings.TrimPrefix(reply, "-ERR "))
	}
	return nil
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

func (n *Node) currentMap() *Map {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.cmap
}

// swapMap joins m into the current map and reports whether that changed
// it. Moving the data is the caller's: see installAndSync.
func (n *Node) swapMap(m *Map) (changed bool) {
	prev, next := n.update(func(cur *Map) *Map { return cur.join(m) })
	return next != prev
}

// update installs f of the current map, under mu, and mirrors it into the
// store's snapshot metadata when it differs. It returns the map f was
// given and the one installed after.
func (n *Node) update(f func(cur *Map) *Map) (prev, next *Map) {
	n.mu.Lock()
	defer n.mu.Unlock()
	prev, next = n.cmap, f(n.cmap)
	if next.Encode() == prev.Encode() {
		return prev, prev
	}
	n.cmap = next
	n.store.SetMeta([]byte(next.Encode()))
	return prev, next
}

// reconcileMap settles a map mismatch with the one peer it was seen on:
// pull that peer's map, join it into ours (running the pass if that
// changed ours), and push the result back with one targeted SETMAP if it
// differs from the peer's. Its callers learn of the mismatch for free,
// from a digest the peer sent anyway — a gossip reply's, a -STALE refusal
// of a DSUM or of an XFER frame — so a converged cluster never pays a MAP
// pull.
func (n *Node) reconcileMap(addr string) error {
	theirs, err := n.peers.fetchMap(addr)
	if err != nil {
		return err
	}
	err = n.installAndSync(theirs)
	if cur := n.currentMap(); cur.Digest() != theirs.Digest() {
		_, perr := n.peers.do(addr, setmapCommand(cur)...)
		err = errors.Join(err, perr)
	}
	return err
}

// setmapCommand renders the CLUSTER SETMAP command that installs m.
func setmapCommand(m *Map) []string {
	return append([]string{"CLUSTER", "SETMAP"}, strings.Fields(m.Encode())...)
}

// moveThenAnnounce finishes a membership change from prev this node
// coordinates once it installed m — its pass, split around the SETMAP
// broadcast. Its drain goes first and hands the keys this node gave up to
// all their new owners (the XFER fence lets a sender ahead of the
// receiver's map in).
// Then the broadcast, also when the drain failed: a key whose hand-off
// failed stays here as a stray for the next pass, while one unreachable
// new owner must not keep m from every other member. Every member drains
// and runs its rounds before it replies. Its own rounds go last, when every
// peer holds m. So a nil return means the cluster has converged on m, and,
// since every node drains before any round compares, a moved key costs the
// same pushes whichever node coordinates.
func (n *Node) moveThenAnnounce(m, prev *Map) error {
	drainErr := n.drainStrays()
	if err := n.broadcast(m, prev); err != nil {
		return errors.Join(drainErr, fmt.Errorf("broadcast: %w", err))
	}
	return errors.Join(drainErr, n.syncRounds(true))
}

// broadcast sends SETMAP to every member of m except this node, and to
// every member of prev that m dropped — best-effort: a live leaver learns
// to drain, a dead one is ignored. Peers run their digest round before
// replying, so a nil return means the cluster has converged.
func (n *Node) broadcast(m, prev *Map) error {
	args := setmapCommand(m)
	to := m.Members()
	for _, mem := range prev.Members() {
		if !m.Has(mem.ID) {
			to = append(to, mem)
		}
	}
	if len(to) == 0 {
		return nil // a map with no members and no leavers: nobody to tell
	}
	return n.eachOwner(to, func(mem Member) error {
		if mem.ID == n.id {
			return nil
		}
		if _, err := n.peers.do(mem.Addr, args...); m.Has(mem.ID) {
			return err
		}
		return nil
	})
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

// validWrite checks a write's key and elements by the token rule; verb
// names the write in errors.
func validWrite(verb, key string, elements []string) error {
	if err := validToken("key", key); err != nil {
		return err
	}
	if len(elements) == 0 {
		// Reject before hashing or forwarding: a batch of no tokens is
		// refused by the owners, and creates nothing anywhere.
		return fmt.Errorf("cluster: %s needs at least one element", verb)
	}
	for _, e := range elements {
		if err := validToken("element", e); err != nil {
			return err
		}
	}
	return nil
}

// withStaleMapRetry runs op against the current map and, when it fails
// while a changed map was installed concurrently, re-resolves
// once against the fresh map. This is the server-side mirror of the
// smart client's failover: a forward that lands on a just-evicted
// owner mid-rebalance gets one second chance against the map
// that evicted it, instead of surfacing a transport error the caller
// would have to retry anyway. Bounded at one re-resolve — a second
// concurrent map change surfaces its error as before.
func (n *Node) withStaleMapRetry(op func(m *Map) error) error {
	m := n.currentMap()
	err := op(m)
	if err == nil {
		return nil
	}
	if cur := n.currentMap(); cur != m {
		return op(cur)
	}
	return err
}

// Add inserts elements into key on every owner node; it reports whether
// any owner's sketch changed. The elements are hashed once, here, into one
// sorted token batch (Store.Batch): this node's copy absorbs it, and every
// other owner gets its ELT3 bytes in one CLUSTER MLADD line and absorbs
// those, so all owners record the same tokens and replicas stay
// byte-identical (insertion order does not matter — the paper's
// reproducibility property). Keys and elements must be non-empty and
// whitespace-free, the line protocol's token rule: the elements no longer
// travel between nodes, but ClusterClient sends them on the wire, and one
// rule holds for both routes.
func (n *Node) Add(key string, elements ...string) (bool, error) {
	if err := validWrite("Add", key, elements); err != nil {
		return false, err
	}
	batch, err := n.store.Batch(elements)
	if err != nil {
		return false, err
	}
	return n.add(key, &batch)
}

// AddBytes is Add for the tokens of a command line — the server's PFADD:
// the tokenizer already held them to the token rule, and the server's
// arity check gave at least one element, so they are not checked again.
// The elements are hashed where they lie, and the key becomes a string
// once. The slices are not retained.
func (n *Node) AddBytes(key []byte, elements [][]byte) (bool, error) {
	batch, err := n.store.BatchBytes(elements)
	if err != nil {
		return false, err
	}
	return n.add(string(key), &batch)
}

// add is Add of a token batch, on every owner under the current map.
// Re-sending to an owner that already applied the batch is harmless
// (absorbing tokens is idempotent), which is what makes the stale-map
// retry safe.
func (n *Node) add(key string, batch *core.Hybrid) (bool, error) {
	var changed atomic.Bool
	err := n.withStaleMapRetry(func(m *Map) error {
		return n.eachOwner(m.Owners(key), func(o Member) error {
			var c bool
			var err error
			if o.ID == n.id {
				c, err = n.store.AddBatch(key, batch)
			} else {
				var v int
				v, err = n.peers.mlAdd(o.Addr, key, batch, 0, 0)
				c = v == 1
			}
			if c {
				changed.Store(true)
			}
			return err
		})
	})
	if err != nil {
		return false, err
	}
	return changed.Load(), nil
}

// eachOwner runs a forwarded command — a write, a read or a gather — on
// every one of a key's owners, or a control message (a SETMAP) on a set of
// members, and returns their errors joined in owner order. It is the
// package's one fan-out. Every remote owner but the last gets a goroutine;
// this node's own run and then the last remote owner's run on the caller's.
// So with a replica factor of 2 one goroutine starts when this node owns
// neither copy, and none when it owns one. No owners at all is the map of
// a node not started yet, and an error for every verb: a read, DEL and
// KEYS as much as a write.
func (n *Node) eachOwner(owners []Member, run func(o Member) error) error {
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
	type result struct {
		i   int
		err error
	}
	var async chan result
	pending := 0
	for i, o := range owners {
		if i == local || i == last {
			continue
		}
		if async == nil {
			async = make(chan result, len(owners))
		}
		pending++
		ch := async // captured by value, so async itself stays on the stack
		go func() { ch <- result{i, run(o)} }()
	}
	var buf [4]error
	errs := buf[:0]
	if len(owners) > len(buf) {
		errs = make([]error, 0, len(owners))
	}
	errs = errs[:len(owners)]
	if local >= 0 {
		errs[local] = run(owners[local])
	}
	if last >= 0 {
		errs[last] = run(owners[last])
	}
	for ; pending > 0; pending-- {
		r := <-async
		errs[r.i] = r.err
	}
	return errors.Join(errs...) // nil when every owner succeeded
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
	var u core.Union
	defer u.Reset(core.Config{}) // gives its token array back
	if err := n.withStaleMapRetry(func(m *Map) error { return n.gather(&u, m, keys) }); err != nil {
		return 0, err
	}
	return u.Estimate(), nil
}

// CountBytes is Count for the tokens of a command line — the server's
// PFCOUNT. The slices are not retained.
func (n *Node) CountBytes(keys [][]byte) (float64, error) {
	return n.Count(server.StringArgs(keys)...)
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
// Owners are queried through eachOwner; missing keys are skipped. Both the
// plain (gather) and windowed (gatherWindows) scatter-gathers sit on
// this one scaffold and differ only in how they decode and merge.
func (n *Node) gatherOwnerBlobs(m *Map, keys []string) ([]ownerBlob, error) {
	type ownerJobs struct {
		keys []string
		got  []ownerBlob
	}
	var owners []Member
	byID := make(map[string]*ownerJobs)
	for _, key := range keys {
		for _, o := range m.Owners(key) {
			oj, ok := byID[o.ID]
			if !ok {
				oj = &ownerJobs{}
				byID[o.ID] = oj
				owners = append(owners, o)
			}
			oj.keys = append(oj.keys, key)
		}
	}
	err := n.eachOwner(owners, func(o Member) error {
		oj := byID[o.ID] // each owner's jobs are its own run's alone
		if o.ID == n.id {
			for _, key := range oj.keys {
				if blob, ok := n.store.Dump(key); ok {
					oj.got = append(oj.got, ownerBlob{key, o.ID, blob})
				}
			}
			return nil
		}
		cmds := make([][]string, len(oj.keys))
		for j, key := range oj.keys {
			cmds[j] = []string{"DUMP", key}
		}
		results, err := n.peers.pipeline(o.Addr, cmds)
		if err != nil {
			return fmt.Errorf("cluster: dump from %s: %w", o.ID, err)
		}
		for j, res := range results {
			if errors.Is(res.Err, server.ErrNoSuchKey) {
				continue
			}
			if res.Err != nil {
				return fmt.Errorf("cluster: dump %q from %s: %w", oj.keys[j], o.ID, res.Err)
			}
			blob, err := base64.StdEncoding.DecodeString(res.Value)
			if err != nil {
				return fmt.Errorf("cluster: dump %q from %s: %w", oj.keys[j], o.ID, err)
			}
			oj.got = append(oj.got, ownerBlob{oj.keys[j], o.ID, blob})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []ownerBlob
	for _, o := range owners {
		out = append(out, byID[o.ID].got...)
	}
	return out, nil
}

// gather fetches every owner's sketch for every key (one pipelined
// batch per owner, see gatherOwnerBlobs) and adds every distinct copy to u,
// emptied first. Every copy is decoded before the first is added, token
// blobs into one array, so that the union sizes its own token array once,
// for their total. A windowed key surfaces the store's WRONGTYPE error
// rather than merging garbage.
func (n *Node) gather(u *core.Union, m *Map, keys []string) error {
	u.Reset(n.store.Config())
	blobs, err := n.gatherOwnerBlobs(m, keys)
	if err != nil {
		return err
	}
	words := 0
	for _, b := range blobs {
		if core.IsTokenBlob(b.blob) {
			words += len(b.blob)/8 + 1
		}
	}
	type part struct {
		ownerBlob
		sk core.Hybrid
	}
	buf, parts, tokens := make([]uint64, words), make([]part, 0, len(blobs)), 0
	err = eachDistinctCopy(blobs, func(b ownerBlob) error {
		if window.IsSerialized(b.blob) {
			return fmt.Errorf("cluster: sketch %q from %s: %w", b.key, b.ownerID, server.ErrWrongType)
		}
		need := 0
		if core.IsTokenBlob(b.blob) {
			need = len(b.blob)/8 + 1
		}
		sk, err := core.DecodeBatch(b.blob, buf[:need:need])
		if err != nil {
			return fmt.Errorf("cluster: sketch %q from %s: %w", b.key, b.ownerID, err)
		}
		buf = buf[need:]
		if sk.IsSparse() {
			tokens += sk.Tokens()
		}
		parts = append(parts, part{b, sk})
		return nil
	})
	if err != nil {
		return err
	}
	u.Grow(tokens)
	for i := range parts {
		if err := u.Add(&parts[i].sk); err != nil {
			return fmt.Errorf("cluster: sketch %q from %s: %w", parts[i].key, parts[i].ownerID, err)
		}
	}
	return nil
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
	if err := validWrite("WindowAdd", key, elements); err != nil {
		return 0, err
	}
	batch, err := n.store.Batch(elements)
	if err != nil {
		return 0, err
	}
	return n.windowAdd(key, tsMillis, &batch, len(elements))
}

// WindowAddBytes is WindowAdd for the tokens of a command line — the
// server's WADD, as AddBytes is its PFADD. The slices are not retained.
func (n *Node) WindowAddBytes(key []byte, tsMillis int64, elements [][]byte) (int, error) {
	batch, err := n.store.BatchBytes(elements)
	if err != nil {
		return 0, err
	}
	return n.windowAdd(string(key), tsMillis, &batch, len(elements))
}

// windowAdd is WindowAdd of the token batch of cnt elements, on every
// owner under the current map. Re-sending is harmless (slice merges are
// idempotent, slice assignment is a pure function of the timestamp),
// making the stale-map retry safe.
func (n *Node) windowAdd(key string, tsMillis int64, batch *core.Hybrid, cnt int) (int, error) {
	var accepted int
	err := n.withStaleMapRetry(func(m *Map) error {
		owners := m.Owners(key)
		return n.eachOwner(owners, func(o Member) error {
			var a int
			var err error
			if o.ID == n.id {
				a, err = n.store.WindowAddBatch(key, tsMillis, batch, cnt)
			} else {
				a, err = n.peers.mlAdd(o.Addr, key, batch, tsMillis, cnt)
			}
			if o.ID == owners[0].ID { // the one write that sets it
				accepted = a
			}
			return err
		})
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
// current value) at dest, replicated to all of dest's owners. Re-sending
// the union is harmless (merges are idempotent), so a PFMERGE that an
// owner refused for holding a newer map retries once under that map.
func (n *Node) MergeKeys(dest string, sources ...string) error {
	if err := validKeys(append([]string{dest}, sources...)); err != nil {
		return err
	}
	keys := append(append([]string{}, sources...), dest)
	return n.withStaleMapRetry(func(m *Map) error {
		var u core.Union
		defer u.Reset(core.Config{}) // gives its token array back
		if err := n.gather(&u, m, keys); err != nil {
			return err
		}
		union := u.Hybrid()
		blob, err := union.MarshalBinary()
		if err != nil {
			return err
		}
		return n.absorbAll(m, dest, blob)
	})
}

// absorbAll merges blob into key on every owner under m: a remote owner
// gets it as a one-record XFER frame. The record imposes no deadline, so a
// destination that already has a lifetime keeps it. An owner that refuses
// the frame for holding a newer map has that map installed here
// (reconcileMap), so MergeKeys' retry routes by it.
func (n *Node) absorbAll(m *Map, key string, blob []byte) error {
	return n.eachOwner(m.Owners(key), func(o Member) error {
		if o.ID == n.id {
			return n.store.MergeBlob(key, blob)
		}
		s := n.newStream(o.Addr, m.Height(), nil, nil)
		s.add(server.KeyBlob{Key: key, Blob: blob})
		err := s.close()
		if errors.Is(err, errStale) {
			if rerr := n.reconcileMap(o.Addr); rerr != nil {
				err = errors.Join(err, rerr)
			}
		}
		return err
	})
}

// Del removes key from all of its owners; it reports whether any owner
// had it. Deleting an already-deleted key is a no-op, so the stale-map
// retry is safe.
func (n *Node) Del(key string) (bool, error) {
	if err := validToken("key", key); err != nil {
		return false, err
	}
	return n.onOwners(key, func() bool { return n.store.Delete(key) }, "CLUSTER", "LDEL", key)
}

// onOwners runs a one-key local verb on every owner of key — local here,
// the internal CLUSTER verb cmd on a peer — and reports whether any owner
// answered yes (:1). Each verb it runs is safe to repeat, so it retries
// once against a newer map.
func (n *Node) onOwners(key string, local func() bool, cmd ...string) (bool, error) {
	var yes atomic.Bool
	err := n.withStaleMapRetry(func(m *Map) error {
		return n.eachOwner(m.Owners(key), func(o Member) error {
			if o.ID == n.id {
				if local() {
					yes.Store(true)
				}
				return nil
			}
			reply, err := n.peers.do(o.Addr, cmd...)
			if reply == "1" {
				yes.Store(true)
			}
			return err
		})
	})
	if err != nil {
		return false, err
	}
	return yes.Load(), nil
}

// AllKeys returns the union of every member's local keys, sorted.
func (n *Node) AllKeys() ([]string, error) {
	var mu sync.Mutex
	seen := make(map[string]struct{})
	err := n.eachOwner(n.currentMap().Members(), func(mem Member) error {
		var keys []string
		if mem.ID == n.id {
			keys = n.store.Keys()
		} else {
			reply, err := n.peers.do(mem.Addr, "CLUSTER", "LKEYS")
			if err != nil {
				return err
			}
			keys = strings.Fields(reply)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, k := range keys {
			seen[k] = struct{}{}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// --- protocol handlers -------------------------------------------------

// clusterVerbs is the CLUSTER subverb table NewNode registers: each entry's
// arity (max < 0: unbounded), the reply to any other count, and a handler
// that parses only what was counted (SETMAP's and GOSSIP's decoders count).
var clusterVerbs = []struct {
	sub      string
	min, max int
	usage    string
	handle   func(n *Node, reply []byte, args [][]byte) []byte
}{
	{"INFO", 0, 0, "-ERR CLUSTER INFO takes no arguments", (*Node).handleInfo},
	{"MAP", 0, 0, "-ERR CLUSTER MAP takes no arguments", (*Node).handleMap},
	{"JOIN", 2, 2, "-ERR CLUSTER JOIN needs an ID and an address", (*Node).handleJoin},
	{"LEAVE", 1, 1, "-ERR CLUSTER LEAVE needs a node ID", (*Node).handleLeave},
	{"SETMAP", 0, -1, "", (*Node).handleSetMap},
	{"DSUM", 2, 2, "-ERR CLUSTER DSUM needs a requester ID and d=<map digest>", (*Node).handleDigestSum},
	{"DKEYS", 3, 3, "-ERR CLUSTER DKEYS needs a requester ID, d=<map digest> and a shard list", (*Node).handleDigestKeys},
	{"GOSSIP", 0, -1, "", (*Node).handleGossip},
	{"HEALTH", 0, 0, "-ERR CLUSTER HEALTH takes no arguments", (*Node).handleHealth},
	{"STATS", 0, 1, clusterStatsUsage, (*Node).handleStats},
	{"LDEL", 1, 1, "-ERR CLUSTER LDEL needs exactly one key", (*Node).handleLDel},
	{"LEXPIREAT", 2, 2, "-ERR CLUSTER LEXPIREAT needs a key and a unix-millisecond deadline", (*Node).handleLExpireAt},
	{"LDEADLINE", 1, 1, "-ERR CLUSTER LDEADLINE needs exactly one key", (*Node).handleLDeadline},
	{"LPERSIST", 1, 1, "-ERR CLUSTER LPERSIST needs exactly one key", (*Node).handleLPersist},
	{"LKEYS", 0, 0, "-ERR CLUSTER LKEYS takes no arguments", (*Node).handleLKeys},
	{"MLADD", 3, 5, mlAddUsage, (*Node).handleMLAdd},
	{"XFER", 3, 3, xferUsage, (*Node).handleXfer},
}

func (n *Node) handleInfo(reply []byte, _ [][]byte) []byte {
	m := n.currentMap()
	return fmt.Appendf(reply, "+id=%s addr=%s %s replicas=%d nodes=%d keys=%d pushes=%d",
		n.id, n.Addr(), m.Stamp(), m.Replicas, m.Len(), n.store.Len(), n.pushes.Load())
}

// handleMap serves CLUSTER MAP: what a smart client fetches at dial and
// after a transport failover. Peers pull it only while maps differ
// (reconcileMap).
func (n *Node) handleMap(reply []byte, _ [][]byte) []byte {
	return append(append(reply, '+'), n.currentMap().Encode()...)
}

func (n *Node) handleJoin(reply []byte, args [][]byte) []byte {
	return append(reply, n.coordinateJoin(string(args[0]), string(args[1]))...)
}

func (n *Node) handleLeave(reply []byte, args [][]byte) []byte {
	return append(reply, n.coordinateLeave(string(args[0]))...)
}

func (n *Node) handleSetMap(reply []byte, args [][]byte) []byte {
	m, err := DecodeMap(server.StringArgs(args))
	if err != nil {
		return append(reply, "-ERR "+err.Error()...)
	}
	if err := n.installAndSync(m); err != nil {
		return append(reply, "-ERR sync: "+err.Error()...)
	}
	return append(reply, "+OK"...)
}

func (n *Node) handleLDel(reply []byte, args [][]byte) []byte {
	return appendYes(reply, n.store.Delete(string(args[0])))
}

func (n *Node) handleLExpireAt(reply []byte, args [][]byte) []byte {
	dl, ok := server.ParseIntBytes(args[1])
	if !ok || dl <= 0 || dl > server.MaxDeadlineMillis {
		return fmt.Appendf(reply, "-ERR bad CLUSTER LEXPIREAT deadline %q", args[1])
	}
	return appendYes(reply, n.store.ExpireAt(string(args[0]), dl))
}

func (n *Node) handleLDeadline(reply []byte, args [][]byte) []byte {
	dl, ok := n.store.DeadlineOf(string(args[0]))
	if !ok {
		// Verbatim, so the gather path maps it back to ErrNoSuchKey.
		return append(reply, "-ERR "+server.ErrNoSuchKey.Error()...)
	}
	return strconv.AppendInt(append(reply, ':'), dl, 10)
}

func (n *Node) handleLPersist(reply []byte, args [][]byte) []byte {
	return appendYes(reply, n.store.Persist(string(args[0])))
}

func (n *Node) handleLKeys(reply []byte, _ [][]byte) []byte {
	return append(append(reply, '+'), strings.Join(n.store.Keys(), " ")...)
}

// appendYes appends a local verb's :1 or :0.
func appendYes(reply []byte, yes bool) []byte {
	if yes {
		return append(reply, ":1"...)
	}
	return append(reply, ":0"...)
}

// handleMLAdd executes a forwarded add — the one forwarded-add verb. It
// carries the token batch the coordinator hashed the elements into
// (Store.Batch), as the base64 of its ELT3 (or, past break-even, dense)
// bytes:
//
//	p <key> <batch>            → :1/:0 (plain add: the changed-bit)
//	w <key> <ts> <n> <batch>   → :<accepted> (windowed add of n elements at a unix-ms timestamp)
//
// A batch the owner refuses — a key of the other value type or of another
// sketch configuration, or a batch that is not base64 of a blob the core
// decoder accepts, or holds no token — answers mlAddRefused, which clients
// read as server.ErrWrongType. This is the receiving end of every
// forwarded write, so args are the line's own bytes, and the outcome is
// appended to reply.
func (n *Node) handleMLAdd(reply []byte, args [][]byte) []byte {
	var raw [mlAddRawBytes]byte
	var words [mlAddRawBytes / 8]uint64
	switch {
	case len(args) == 3 && string(args[0]) == "p":
		batch, err := decodeBatch(raw[:], words[:], args[2])
		changed := false
		if err == nil {
			changed, err = n.store.AddBatchBytes(args[1], &batch)
		}
		if err != nil {
			return append(reply, mlAddRefused...)
		}
		return appendYes(reply, changed)
	case len(args) == 5 && string(args[0]) == "w":
		ts, ok := server.ParseIntBytes(args[2])
		if !ok {
			return fmt.Appendf(reply, "-ERR bad CLUSTER MLADD timestamp %q", args[2])
		}
		cnt, ok := server.ParseIntBytes(args[3])
		if !ok || cnt < 1 {
			return fmt.Appendf(reply, "-ERR bad CLUSTER MLADD element count %q", args[3])
		}
		batch, err := decodeBatch(raw[:], words[:], args[4])
		accepted := 0
		if err == nil {
			accepted, err = n.store.WindowAddBatchBytes(args[1], ts, &batch, int(cnt))
		}
		if err != nil {
			return append(reply, mlAddRefused...)
		}
		return strconv.AppendInt(append(reply, ':'), int64(accepted), 10)
	}
	return append(reply, mlAddUsage...)
}

const mlAddUsage = "-ERR CLUSTER MLADD needs p <key> <batch> or w <key> <ts> <n> <batch>"

// mlAddRefused is the one reply to a refused forwarded add. It ends in
// ErrWrongType's text, which server.Client maps back to ErrWrongType.
var mlAddRefused = "-ERR CLUSTER MLADD refused (a key of another type or sketch configuration, or a bad batch): " + server.ErrWrongType.Error()

// mlAddRawBytes is how large a forwarded blob may be to be decoded on the
// stack, as appendBatch encodes it there on the sending side.
const mlAddRawBytes = 512

// decodeBatch decodes a forwarded base64 batch, through raw and into words
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

// coordinateJoin is JOIN: id listening at addr, through mutate. A node
// that re-enters after an auto-eviction gets the same +OK as any other
// joiner.
func (n *Node) coordinateJoin(id, addr string) string {
	if !validID(id) {
		return fmt.Sprintf("-ERR invalid node ID %q", id)
	}
	if strings.ContainsAny(addr, " \t\r\n=") || addr == "" {
		return fmt.Sprintf("-ERR invalid node address %q", addr)
	}
	return n.mutate(func(m *Map) bool { return m.Addr(id) == addr },
		func(cur *Map) *Map { return cur.withNode(id, addr) })
}

// coordinateLeave is LEAVE: id off the map, through mutate — an operator's,
// gossip's auto-eviction and this node's own Leave.
func (n *Node) coordinateLeave(id string) string {
	return n.mutate(func(m *Map) bool { return !m.Has(id) },
		func(cur *Map) *Map { return cur.withoutNode(id) })
}

// mutate is the one way this node changes the cluster map as coordinator.
// Unless done reports that the current map already holds the change, it
// applies change to the current map under mu and finishes with
// moveThenAnnounce, which tells the members the change removed too, so a
// live leaver drains its keys. A node already off its own map — e.g. after
// a Leave whose pass failed — finishes the hand-off instead: it drains
// what is still local and re-tells the members, no-ops when all is done.
// A change that stands but whose pass failed answers "-ERR sync: …", as
// SETMAP does; any other -ERR means nothing changed.
func (n *Node) mutate(done func(*Map) bool, change func(*Map) *Map) string {
	prev, next := n.update(func(cur *Map) *Map {
		if done(cur) {
			return cur
		}
		return change(cur)
	})
	if next != prev || !next.Has(n.id) {
		if err := n.moveThenAnnounce(next, prev); err != nil {
			return "-ERR sync: " + err.Error()
		}
	}
	return "+OK " + n.currentMap().Stamp()
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
// errors, closing the peer's idle connections and feeding the failure
// detector — a black-holed peer can no longer hang an operation
// forever. It applies to connections dialed after the call (elld sets
// it before Start); d ≤ 0 disables deadlines.
func (n *Node) SetPeerTimeout(d time.Duration) { n.peers.setTimeout(d) }
