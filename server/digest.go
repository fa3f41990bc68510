package server

// Content digests for anti-entropy: a node summarizes (key, value,
// deadline) state as 64-bit digests so replicas can detect divergence
// by exchanging O(shards) bytes instead of O(keys) blobs. Digests are
// pure functions of replicated state — the serialized value bytes and
// the absolute expiry deadline — never of local bookkeeping like entry
// version counters, so converged replicas produce identical digests no
// matter how they arrived at the state (the same order-independence
// the sketch merge itself guarantees).
//
// Nothing is cached: a sweep appends each key's canonical bytes into one
// scratch buffer and hashes them with wyhash, which costs a few
// microseconds for a dense key, allocates nothing per key, and keeps the
// entry free of a cached digest and its invalidation.

import (
	"encoding/binary"

	"exaloglog/internal/hashing"
)

// NumShards is the store's shard count, exported so cluster peers can
// exchange per-shard digest vectors. The shard of a key is a pure
// function of the key bytes (ShardIndex), identical on every node.
const NumShards = numShards

// ShardIndex returns the index in [0, NumShards) of the shard that
// holds key — the same value on every node for the same key.
func ShardIndex(key string) int { return shardIndex(key) }

// KeyDigest is one key's content digest, as exchanged during a digest
// anti-entropy round.
type KeyDigest struct {
	Key    string
	Digest uint64
}

// digester is one digest sweep's scratch: the serialized bytes of the key
// being digested, and the keys and entries of the shard being swept.
// Reused from key to key and shard to shard, it lets a sweep allocate
// only while its buffers grow.
type digester struct {
	buf     []byte
	keys    []string
	entries []*entry
}

// keyDigestLocked returns the digest of (key, serialized value, deadline);
// e.mu must be held. The key goes in length-prefixed, so no two (key,
// value) pairs hash the same bytes.
func (dg *digester) keyDigestLocked(key string, e *entry) uint64 {
	b := binary.AppendUvarint(dg.buf[:0], uint64(len(key)))
	b = append(b, key...)
	b, _ = e.AppendBinary(b) // appending a value's bytes cannot fail
	dg.buf = b
	h := hashing.Wy64(b, 0)
	return hashing.Mix64(h ^ hashing.Mix64(uint64(e.deadline.Load())))
}

// shard calls fn with the digest of every live, unexpired key of shard i
// that the filter accepts (a nil filter accepts all). Keys are gathered
// under the shard's read lock and digested each under its own lock.
func (dg *digester) shard(s *Store, i int, filter func(key string) bool, nowMs int64, fn func(key string, d uint64)) {
	sh := &s.shards[i]
	dg.keys, dg.entries = dg.keys[:0], dg.entries[:0]
	sh.mu.RLock()
	for k, e := range sh.m {
		if filter == nil || filter(k) {
			dg.keys = append(dg.keys, k)
			dg.entries = append(dg.entries, e)
		}
	}
	sh.mu.RUnlock()
	for j, e := range dg.entries {
		e.mu.Lock()
		// An expired key is digested as absent, and collected lazily.
		if dl := e.deadline.Load(); !e.dead && (dl == 0 || nowMs < dl) {
			fn(dg.keys[j], dg.keyDigestLocked(dg.keys[j], e))
		}
		e.mu.Unlock()
	}
	clear(dg.entries) // hold no entry past the sweep
}

// ShardDigests returns one digest per shard: the XOR-fold of the
// digests of every live, unexpired key the filter accepts (a nil
// filter accepts all). Two stores whose accepted key sets hold
// byte-identical values and deadlines produce identical vectors; any
// divergence flips at least one shard with overwhelming probability.
func (s *Store) ShardDigests(filter func(key string) bool) []uint64 {
	out := make([]uint64, numShards)
	nowMs := s.NowMillis()
	var dg digester
	for i := range out {
		dg.shard(s, i, filter, nowMs, func(_ string, d uint64) { out[i] ^= d })
	}
	return out
}

// ShardKeyDigests returns the per-key digests of one shard (keys the
// filter rejects, expired and dead entries omitted) — the second round
// of a digest exchange, fetched only for shards whose folded digests
// disagreed.
func (s *Store) ShardKeyDigests(shard int, filter func(key string) bool) []KeyDigest {
	if shard < 0 || shard >= numShards {
		return nil
	}
	var dg digester
	var out []KeyDigest
	dg.shard(s, shard, filter, s.NowMillis(), func(key string, d uint64) {
		out = append(out, KeyDigest{Key: key, Digest: d})
	})
	return out
}

// DumpTagged is Dump for a single key with the full state token — blob,
// deadline and change-detection identity — what a digest repair ships
// for a key that diverged.
func (s *Store) DumpTagged(key string) (TaggedBlob, bool) {
	e := s.lookup(key)
	if e == nil {
		return TaggedBlob{}, false
	}
	return s.dumpEntry(key, e)
}
