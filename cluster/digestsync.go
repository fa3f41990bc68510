package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"exaloglog/server"
)

// Digest anti-entropy — the one path that moves DATA between nodes (gossip
// moves maps, see gossip.go). It runs on a timer (DigestSync) and whenever
// a node installs a newer map (installAndSync): a membership change is a
// digest round, and the next round is its retry.
// Instead of probing replicas key by key, a node summarizes the
// replicated state it shares with one peer as 128 per-shard digests
// (one XOR-fold of per-key content digests each, see server/digest.go)
// and ships only the keys of shards that disagree. On a converged
// cluster a full round is one DSUM message per peer — O(members)
// messages carrying O(shards) bytes — no matter how many keys the
// cluster holds. Before its rounds a pass hands strays (keys this node
// holds but does not own) to their owners.
//
// Wire protocol (CLUSTER subcommands on the ordinary line protocol):
//
//	CLUSTER DSUM <peerID> d=<map digest>            → +<hex> <hex> …   | -STALE h=.. d=..
//	CLUSTER DKEYS <peerID> d=<map digest> <shards>  → +<key>=<hex> …   | -STALE h=.. d=..
//
// <peerID> is the REQUESTER's node ID: the responder folds only keys
// co-owned by both nodes under its current map, which is what makes
// the vectors comparable — each side digests the same key population.
// Both sides insist on the same map — the same Map.Digest; -STALE with
// the responder's Map.Stamp otherwise — since comparing digests across
// different ownership views would ship keys to nodes that no longer own
// them. The refused requester settles the maps with that one peer
// (reconcileMap), so digest rounds alone heal a missed broadcast.
// <shards> is a comma-separated list of shard indices whose folded
// digests disagreed.
//
// Both replies are text tokens, as CLUSTER MAP's and GOSSIP's are: DSUM
// one hex digest per shard, in shard order; DKEYS one key=hex token per
// key, split at the last '=' (a key may hold '=', a hex digest may not).
// Tokens split at ' ' alone: a key holds none of the bytes the line
// tokenizer splits at (server.ValidToken), but may hold \v, \f or U+00A0,
// which strings.Fields would split at.
//
// Repair is push-only and merge-based: each node ships the divergent
// keys IT holds as XFER frames (see transfer.go) and trusts the peer's
// own round for the reverse direction. Merging is idempotent and
// monotone, so concurrent repairs from both sides converge, and a round
// that failed half-way is finished by the next one: what landed no
// longer differs.

// appendDigestVector appends per-shard digests as DSUM's reply: one hex
// token each, in shard order.
func appendDigestVector(b []byte, v []uint64) []byte {
	for i, d := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, d, 16)
	}
	return b
}

func decodeDigestVector(body string) ([]uint64, error) {
	toks := strings.Split(body, " ")
	if len(toks) != server.NumShards {
		return nil, fmt.Errorf("cluster: digest vector: %d shards, want %d", len(toks), server.NumShards)
	}
	out := make([]uint64, len(toks))
	for i, tok := range toks {
		d, err := strconv.ParseUint(tok, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: digest vector: shard %d: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// appendKeyDigests appends per-key digests as DKEYS's reply: one key=hex
// token each.
func appendKeyDigests(b []byte, kds []server.KeyDigest) []byte {
	for i, kd := range kds {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(append(b, kd.Key...), '=')
		b = strconv.AppendUint(b, kd.Digest, 16)
	}
	return b
}

func decodeKeyDigests(body string) (map[string]uint64, error) {
	out := make(map[string]uint64)
	if body == "" {
		return out, nil // no keys: a shard can be all strays
	}
	for _, tok := range strings.Split(body, " ") {
		i := strings.LastIndexByte(tok, '=')
		if i <= 0 {
			return nil, fmt.Errorf("cluster: key digests: token %q is not key=hex", tok)
		}
		key := tok[:i]
		d, err := strconv.ParseUint(tok[i+1:], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: key digests: key %q: %w", key, err)
		}
		if _, seen := out[key]; seen {
			// Two digests for one key: which one stands for the key is
			// not the sender's to leave open.
			return nil, fmt.Errorf("cluster: key digests: key %q repeated", key)
		}
		out[key] = d
	}
	return out, nil
}

// digestFilter checks DSUM's and DKEYS's requester ID and map digest,
// enforces the map fence and filters the keys the two nodes co-own.
func (n *Node) digestFilter(args [][]byte) (filter func(string) bool, errReply string) {
	peerID := string(args[0])
	if !validID(peerID) {
		return nil, fmt.Sprintf("-ERR invalid requester ID %q", peerID)
	}
	hex, ok := bytes.CutPrefix(args[1], []byte("d="))
	digest, err := strconv.ParseUint(string(hex), 16, 64)
	if !ok || err != nil {
		return nil, fmt.Sprintf("-ERR bad map digest %q (want d=<hex>)", args[1])
	}
	m := n.currentMap()
	// Strict equality (unlike XFER's one-sided height fence): digests
	// computed under different maps cover different key populations, so
	// comparing them would only manufacture phantom divergence.
	if m.Digest() != digest {
		return nil, "-STALE " + m.Stamp()
	}
	// The keys both nodes own: the population the exchange summarizes.
	return m.ownedBy(n.id, peerID), ""
}

// handleDigestSum serves CLUSTER DSUM (see the file comment).
func (n *Node) handleDigestSum(reply []byte, args [][]byte) []byte {
	filter, errReply := n.digestFilter(args)
	if errReply != "" {
		return append(reply, errReply...)
	}
	return appendDigestVector(append(reply, '+'), n.store.ShardDigests(filter))
}

// handleDigestKeys serves CLUSTER DKEYS (see the file comment).
func (n *Node) handleDigestKeys(reply []byte, args [][]byte) []byte {
	filter, errReply := n.digestFilter(args)
	if errReply != "" {
		return append(reply, errReply...)
	}
	var kds []server.KeyDigest
	for _, tok := range strings.Split(string(args[2]), ",") {
		shard, err := strconv.Atoi(tok)
		if err != nil || shard < 0 || shard >= server.NumShards {
			return fmt.Appendf(reply, "-ERR bad shard index %q", tok)
		}
		kds = append(kds, n.store.ShardKeyDigests(shard, filter)...)
	}
	return appendKeyDigests(append(reply, '+'), kds)
}

// DigestSync runs one anti-entropy pass — the periodic one; a map install
// runs the same pass (installAndSync). See syncPass.
func (n *Node) DigestSync() error { return n.syncPass(false) }

// installAndSync joins m into the current map and, if that changed it, runs
// the pass that moves the data the new map places elsewhere. This is the
// only way a membership change moves data.
func (n *Node) installAndSync(m *Map) error {
	if !n.swapMap(m) {
		return nil
	}
	return n.syncPass(true)
}

// syncPass is the one data mover. It first drains the strays — keys this
// node holds but does not own, every key on a node off the map — to all
// their owners. Then, against each peer, it exchanges per-shard digest
// vectors, narrows disagreeing shards to per-key digests and ships the
// divergent keys this node holds; what the drain delivered no longer
// differs. A peer whose map differs refuses the exchange: the maps
// are reconciled with that peer on the spot and the peer is tried once
// more. Every peer is tried; the errors are joined.
//
// membership says a map install started the pass. Its rounds go to the
// peers this node now shares keys with, and what it ships is counted as
// RebalancePushes, not as digest repairs (a drained stray always is). The
// timer's pass goes to every member, since a refused exchange is also how
// a node — one off the map too — learns that it missed a map.
func (n *Node) syncPass(membership bool) error {
	return errors.Join(n.drainStrays(), n.syncRounds(membership))
}

// syncRounds is the second half of a pass: one digest round with each
// of the map's passPeers.
func (n *Node) syncRounds(membership bool) error {
	var errs []error
	m := n.currentMap()
	for _, mem := range m.passPeers(n.id, membership) {
		err := n.digestSyncPeer(mem, membership)
		if errors.Is(err, errStale) {
			if err = n.reconcileMap(mem.Addr); err == nil {
				err = n.digestSyncPeer(mem, membership)
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: digest sync with %s: %w", mem.ID, err))
		}
	}
	return errors.Join(errs...)
}

// digestSyncPeer is one peer's round of a pass, under the current map (a
// reconcile earlier in the pass may have installed a newer one).
func (n *Node) digestSyncPeer(peer Member, membership bool) error {
	m := n.currentMap()
	if !m.Has(peer.ID) {
		return nil
	}
	filter := m.ownedBy(n.id, peer.ID)
	local := n.store.ShardDigests(filter)
	fence := fmt.Sprintf("d=%016x", m.Digest())
	n.digestRounds.Add(1)
	body, err := n.peers.do(peer.Addr, "CLUSTER", "DSUM", n.id, fence)
	if err != nil {
		return asStale(err)
	}
	remote, err := decodeDigestVector(body)
	if err != nil {
		return err
	}
	var diff []int
	var list []string
	for i := range local {
		if local[i] != remote[i] {
			diff = append(diff, i)
			list = append(list, strconv.Itoa(i))
		}
	}
	if len(diff) == 0 {
		return nil // converged: the whole round cost one message
	}
	body, err = n.peers.do(peer.Addr, "CLUSTER", "DKEYS", n.id, fence, strings.Join(list, ","))
	if err != nil {
		return asStale(err)
	}
	theirs, err := decodeKeyDigests(body)
	if err != nil {
		return err
	}
	// Ship every key this node holds in a disagreeing shard whose digest
	// the peer lacks or contradicts. Keys only THEY hold are their
	// round's job — push-only repair keeps both sides independent.
	count := &n.digestRepairs
	if membership {
		count = &n.pushes
	}
	s := n.newStream(peer.Addr, m.Height(), count, nil)
	for _, shard := range diff {
		for _, kd := range n.store.ShardKeyDigests(shard, filter) {
			if theirs[kd.Key] == kd.Digest {
				continue
			}
			if tb, ok := n.store.DumpTagged(kd.Key); ok {
				s.add(server.KeyBlob{Key: kd.Key, Blob: tb.Blob, Deadline: tb.Deadline})
			}
		}
	}
	if err := s.close(); err != nil {
		return fmt.Errorf("repair: %w", err) // errStale if the map moved mid-round
	}
	return nil
}

// drainStrays hands every key this node holds but does not own under the
// current map to its owners, and drops the key once every owner merged it
// — e.g. a write that landed here under a stale map, or every key of a
// node that left the map. It walks the store shard by shard and holds,
// per owner, the frame it fills and one window. A key whose hand-off
// failed stays, and so does one written to after it was dumped
// (Store.DeleteIfUnchanged): the next pass drains it again. An owner that
// refuses a frame for holding a higher map has its map joined in, whose
// pass drains again at once.
func (n *Node) drainStrays() error {
	m := n.currentMap()
	type handoff struct {
		tag    server.TaggedBlob
		owners int // owners yet to merge the key
	}
	pending := make(map[string]*handoff)
	acked := func(keys []string) {
		for _, key := range keys {
			if h := pending[key]; h != nil {
				if h.owners--; h.owners == 0 {
					n.store.DeleteIfUnchanged(key, h.tag)
					delete(pending, key)
				}
			}
		}
	}
	streams := make(map[string]*stream)
	var order []*stream
	owned := m.ownedBy(n.id)
	notOwned := func(key string) bool { return !owned(key) }
	n.store.EachTagged(notOwned, func(key string, t server.TaggedBlob) {
		owners := m.Owners(key)
		if len(owners) == 0 {
			return // ownerless key (degenerate map): never drop data
		}
		kb := server.KeyBlob{Key: key, Blob: t.Blob, Deadline: t.Deadline}
		t.Blob = nil // the streams hold it until it is framed
		pending[key] = &handoff{tag: t, owners: len(owners)}
		for _, o := range owners {
			s := streams[o.ID]
			if s == nil {
				s = n.newStream(o.Addr, m.Height(), &n.pushes, acked)
				streams[o.ID] = s
				order = append(order, s)
			}
			s.add(kb)
		}
	})
	var errs []error
	for _, s := range order {
		err := s.close()
		if errors.Is(err, errStale) {
			// The owner holds a higher map. Joining it runs a pass, and
			// that pass drains whatever is a stray under it.
			err = n.reconcileMap(s.addr)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: drain strays to %s: %w", s.addr, err))
		}
	}
	return errors.Join(errs...)
}

// DigestSyncStats reports the cumulative digest anti-entropy counters:
// rounds is peer-rounds attempted (DSUM exchanges initiated), repaired
// is divergent keys successfully shipped.
func (n *Node) DigestSyncStats() (rounds, repaired uint64) {
	return n.digestRounds.Load(), n.digestRepairs.Load()
}
