package cluster

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"exaloglog/server"
)

// Digest anti-entropy — the one path that moves DATA between nodes
// outside a membership change (gossip moves maps, see gossip.go).
// Instead of probing replicas key by key, a node summarizes the
// replicated state it shares with one peer as 128 per-shard digests
// (one XOR-fold of per-key content digests each, see server/digest.go)
// and ships only the keys of shards that disagree. On a converged
// cluster a full round is one DSUM message per peer — O(members)
// messages carrying O(shards) bytes — no matter how many keys the
// cluster holds. The same pass over the keys notices strays (keys this
// node holds but does not own), which the round hands to their owners.
//
// Wire protocol (CLUSTER subcommands on the ordinary line protocol):
//
//	CLUSTER DSUM <peerID> e=<epoch>            → =<b64 digest vector> | -STALE e=<cur>
//	CLUSTER DKEYS <peerID> e=<epoch> <shards>  → =<b64 key digests>   | -STALE e=<cur>
//
// <peerID> is the REQUESTER's node ID: the responder folds only keys
// co-owned by both nodes under its current map, which is what makes
// the vectors comparable — each side digests the same key population.
// Both sides insist on the same map epoch (-STALE otherwise), since
// comparing digests across different ownership views would ship keys
// to nodes that no longer own them; the refused requester settles the
// maps with that one peer (reconcileMap), so digest rounds alone heal
// a missed broadcast. <shards> is a comma-separated list of shard
// indices whose folded digests disagreed.
//
// Repair is push-only and merge-based: each node ships the divergent
// keys IT holds over the streaming transfer channel (one batched XFER
// stream, or per-key ABSORB below the stream threshold) and trusts the
// peer's own round for the reverse direction. Merging is idempotent
// and monotone, so concurrent repairs from both sides converge exactly
// like every other data movement in the cluster.
const (
	digestVecMagic  = "ELD1"
	digestKeysMagic = "ELK1"
)

// encodeDigestVector packs per-shard digests as the ELD1 payload and
// returns it base64-wrapped.
func encodeDigestVector(v []uint64) string {
	buf := make([]byte, 0, len(digestVecMagic)+binary.MaxVarintLen64+8*len(v))
	buf = append(buf, digestVecMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, d := range v {
		buf = binary.LittleEndian.AppendUint64(buf, d)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

func decodeDigestVector(body string) ([]uint64, error) {
	buf, err := base64.StdEncoding.DecodeString(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: digest vector: %w", err)
	}
	if len(buf) < len(digestVecMagic) || string(buf[:len(digestVecMagic)]) != digestVecMagic {
		return nil, errors.New("cluster: digest vector: bad magic")
	}
	rest := buf[len(digestVecMagic):]
	count, w := binary.Uvarint(rest)
	if w <= 0 || count != uint64(server.NumShards) || uint64(len(rest[w:])) != 8*count {
		return nil, errors.New("cluster: digest vector: bad shard count")
	}
	rest = rest[w:]
	out := make([]uint64, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(rest[8*i:])
	}
	return out, nil
}

// encodeKeyDigests packs per-key digests as the ELK1 payload,
// base64-wrapped.
func encodeKeyDigests(kds []server.KeyDigest) string {
	size := len(digestKeysMagic) + binary.MaxVarintLen64
	for _, kd := range kds {
		size += binary.MaxVarintLen64 + len(kd.Key) + 8
	}
	buf := make([]byte, 0, size)
	buf = append(buf, digestKeysMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(kds)))
	for _, kd := range kds {
		buf = binary.AppendUvarint(buf, uint64(len(kd.Key)))
		buf = append(buf, kd.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, kd.Digest)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

func decodeKeyDigests(body string) (map[string]uint64, error) {
	buf, err := base64.StdEncoding.DecodeString(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: key digests: %w", err)
	}
	if len(buf) < len(digestKeysMagic) || string(buf[:len(digestKeysMagic)]) != digestKeysMagic {
		return nil, errors.New("cluster: key digests: bad magic")
	}
	rest := buf[len(digestKeysMagic):]
	count, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, errors.New("cluster: key digests: truncated count")
	}
	rest = rest[w:]
	// Every record needs at least 9 bytes (1-byte key + digest): cap the
	// claimed count by the bytes present before trusting it.
	if count > uint64(len(rest))/9 {
		return nil, fmt.Errorf("cluster: key digests: implausible count %d for %d payload bytes", count, len(rest))
	}
	out := make(map[string]uint64, int(min(count, 4096)))
	for i := uint64(0); i < count; i++ {
		klen, w := binary.Uvarint(rest)
		if w <= 0 || klen == 0 || klen > uint64(len(rest[w:])) {
			return nil, errors.New("cluster: key digests: bad key length")
		}
		rest = rest[w:]
		key := string(rest[:klen])
		rest = rest[klen:]
		if len(rest) < 8 {
			return nil, errors.New("cluster: key digests: truncated digest")
		}
		if _, seen := out[key]; seen {
			// Two digests for one key: which one stands for the key is
			// not the sender's to leave open.
			return nil, fmt.Errorf("cluster: key digests: key %q repeated", key)
		}
		out[key] = binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: key digests: %d trailing bytes", len(rest))
	}
	return out, nil
}

// coOwnedFilter accepts the keys whose owner set under m contains both
// this node and peerID — the key population a digest exchange between
// the two summarizes. A non-nil stray is set when the scan meets a key
// this node does not own at all: the stray check rides the ownership
// pass instead of costing a key scan of its own.
func (n *Node) coOwnedFilter(m *Map, peerID string, stray *bool) func(string) bool {
	return func(key string) bool {
		ids := m.ownerIDs(key)
		if !slices.Contains(ids, n.id) {
			if stray != nil {
				*stray = true
			}
			return false
		}
		return slices.Contains(ids, peerID)
	}
}

// parseDigestEpoch validates the requester ID and e=<epoch> tokens
// shared by DSUM and DKEYS, and enforces the epoch fence.
func (n *Node) parseDigestEpoch(rest []string) (peerID string, m *Map, errReply string) {
	if len(rest) < 2 || !strings.HasPrefix(rest[1], "e=") {
		return "", nil, "-ERR needs a requester ID and e=<epoch>"
	}
	if !validID(rest[0]) {
		return "", nil, fmt.Sprintf("-ERR invalid requester ID %q", rest[0])
	}
	epoch, err := strconv.ParseUint(strings.TrimPrefix(rest[1], "e="), 10, 64)
	if err != nil {
		return "", nil, "-ERR bad epoch " + rest[1]
	}
	m = n.currentMap()
	// Strict both-ways fence (unlike XFER's one-sided one): digests
	// computed under different maps cover different key populations, so
	// comparing them would only manufacture phantom divergence.
	if m.Epoch != epoch {
		return "", nil, fmt.Sprintf("-STALE e=%d", m.Epoch)
	}
	return rest[0], m, ""
}

// handleDigestSum serves CLUSTER DSUM (see the file comment).
func (n *Node) handleDigestSum(rest []string) string {
	peerID, m, errReply := n.parseDigestEpoch(rest)
	if errReply != "" {
		return errReply
	}
	if len(rest) != 2 {
		return "-ERR CLUSTER DSUM needs a requester ID and e=<epoch>"
	}
	return "=" + encodeDigestVector(n.store.ShardDigests(n.coOwnedFilter(m, peerID, nil)))
}

// handleDigestKeys serves CLUSTER DKEYS (see the file comment).
func (n *Node) handleDigestKeys(rest []string) string {
	peerID, m, errReply := n.parseDigestEpoch(rest)
	if errReply != "" {
		return errReply
	}
	if len(rest) != 3 {
		return "-ERR CLUSTER DKEYS needs a requester ID, e=<epoch> and a shard list"
	}
	filter := n.coOwnedFilter(m, peerID, nil)
	var kds []server.KeyDigest
	for _, tok := range strings.Split(rest[2], ",") {
		shard, err := strconv.Atoi(tok)
		if err != nil || shard < 0 || shard >= server.NumShards {
			return fmt.Sprintf("-ERR bad shard index %q", tok)
		}
		kds = append(kds, n.store.ShardKeyDigests(shard, filter)...)
	}
	return "=" + encodeKeyDigests(kds)
}

// errDigestStale marks a digest round the peer refused because its map
// epoch differs; DigestSync reconciles the maps and the next round
// covers the peer.
var errDigestStale = errors.New("cluster: digest sync: map epochs differ")

// digestDo issues one digest request and decodes the =<base64> reply
// body, folding -STALE refusals into errDigestStale.
func (n *Node) digestDo(addr string, args ...string) (string, error) {
	reply, err := n.peers.do(addr, args...)
	if err != nil {
		if strings.Contains(err.Error(), "STALE") {
			return "", errDigestStale
		}
		return "", err
	}
	return reply, nil
}

// DigestSync runs one anti-entropy round against every peer: exchange
// per-shard digest vectors, narrow disagreeing shards to per-key
// digests, and ship the divergent keys this node holds over the
// streaming transfer channel; then drain any stray the pass over the
// keys met. A peer whose map epoch differs refuses the exchange; the
// maps are reconciled with that peer on the spot and the next round
// covers its data. Every peer is tried; the errors are joined.
func (n *Node) DigestSync() error {
	var errs []error
	stray := false
	for _, mem := range n.currentMap().Members() {
		// Re-read per peer: a reconcile earlier in the round may have
		// installed a newer map.
		m := n.currentMap()
		if mem.ID == n.id || !m.Has(mem.ID) {
			continue
		}
		err := n.digestSyncPeer(m, mem, &stray)
		if errors.Is(err, errDigestStale) {
			err = n.reconcileMap(mem.Addr)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: digest sync with %s: %w", mem.ID, err))
		}
	}
	if stray {
		if err := n.drainStrays(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: digest sync: drain strays: %w", err))
		}
	}
	return errors.Join(errs...)
}

// digestSyncPeer is one peer's round of DigestSync.
func (n *Node) digestSyncPeer(m *Map, peer Member, stray *bool) error {
	filter := n.coOwnedFilter(m, peer.ID, stray)
	local := n.store.ShardDigests(filter)
	epochTok := "e=" + strconv.FormatUint(m.Epoch, 10)
	n.digestRounds.Add(1)
	body, err := n.digestDo(peer.Addr, "CLUSTER", "DSUM", n.id, epochTok)
	if err != nil {
		return err
	}
	remote, err := decodeDigestVector(body)
	if err != nil {
		return err
	}
	var diff []string
	diffIdx := make(map[int]bool)
	for i := range local {
		if local[i] != remote[i] {
			diff = append(diff, strconv.Itoa(i))
			diffIdx[i] = true
		}
	}
	if len(diff) == 0 {
		return nil // converged: the whole round cost one message
	}
	body, err = n.digestDo(peer.Addr, "CLUSTER", "DKEYS", n.id, epochTok, strings.Join(diff, ","))
	if err != nil {
		return err
	}
	theirs, err := decodeKeyDigests(body)
	if err != nil {
		return err
	}
	// Ship every key this node holds in a disagreeing shard whose digest
	// the peer lacks or contradicts. Keys only THEY hold are their
	// round's job — push-only repair keeps both sides independent.
	var items []server.KeyBlob
	for shard := range diffIdx {
		for _, kd := range n.store.ShardKeyDigests(shard, filter) {
			if theirs[kd.Key] == kd.Digest {
				continue
			}
			if tb, ok := n.store.DumpTagged(kd.Key); ok {
				items = append(items, server.KeyBlob{Key: kd.Key, Blob: tb.Blob, Deadline: tb.Deadline})
			}
		}
	}
	if len(items) == 0 {
		return nil
	}
	failed := n.streamTo(peer.Addr, m.Epoch, items)
	n.digestRepairs.Add(uint64(len(items) - len(failed)))
	if len(failed) == 0 {
		return nil
	}
	errs := make([]error, 0, len(failed))
	for key, ferr := range failed {
		if errors.Is(ferr, errXferStale) {
			return errDigestStale // map moved mid-round: next round re-plans
		}
		errs = append(errs, fmt.Errorf("repair %q: %w", key, ferr))
	}
	return errors.Join(errs...)
}

// DigestSyncStats reports the cumulative digest anti-entropy counters:
// rounds is peer-rounds attempted (DSUM exchanges initiated), repaired
// is divergent keys successfully shipped.
func (n *Node) DigestSyncStats() (rounds, repaired uint64) {
	return n.digestRounds.Load(), n.digestRepairs.Load()
}
