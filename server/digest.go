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
// The per-entry blob digest is cached until the entry changes (every
// observable mutation calls changedLocked, which drops it), so a
// converged, idle store answers repeated digest sweeps without
// re-serializing anything; the deadline is mixed in fresh on every read.

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

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// mix64 finalizes a digest with a splitmix64-style avalanche so that
// XOR-folding per-key digests over a shard doesn't cancel structured
// low-entropy bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// blobDigestLocked returns the digest of (key, serialized value),
// cached until the entry changes; e.mu must be held.
func blobDigestLocked(key string, e *entry) (uint64, bool) {
	if e.digOK {
		return e.dig, true
	}
	blob, err := e.MarshalBinary()
	if err != nil {
		return 0, false // unreachable: value marshaling cannot fail
	}
	h := fnvString(fnvOffset, key)
	h = (h ^ uint64(len(blob))) * fnvPrime
	h = fnvBytes(h, blob)
	e.dig, e.digOK = h, true
	return h, true
}

// keyDigestLocked combines the cached blob digest with the entry's
// current deadline; e.mu must be held.
func keyDigestLocked(key string, e *entry) (uint64, bool) {
	h, ok := blobDigestLocked(key, e)
	if !ok {
		return 0, false
	}
	return mix64(h ^ mix64(uint64(e.deadline.Load()))), true
}

// ShardDigests returns one digest per shard: the XOR-fold of the
// digests of every live, unexpired key the filter accepts (a nil
// filter accepts all). Two stores whose accepted key sets hold
// byte-identical values and deadlines produce identical vectors; any
// divergence flips at least one shard with overwhelming probability.
func (s *Store) ShardDigests(filter func(key string) bool) []uint64 {
	out := make([]uint64, numShards)
	nowMs := s.NowMillis()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		keys := make([]string, 0, len(sh.m))
		entries := make([]*entry, 0, len(sh.m))
		for k, e := range sh.m {
			if filter != nil && !filter(k) {
				continue
			}
			keys = append(keys, k)
			entries = append(entries, e)
		}
		sh.mu.RUnlock()
		var fold uint64
		for j, e := range entries {
			e.mu.Lock()
			if e.dead {
				e.mu.Unlock()
				continue
			}
			if dl := e.deadline.Load(); dl != 0 && nowMs >= dl {
				e.mu.Unlock()
				continue // expired: digested as absent, collected lazily
			}
			d, ok := keyDigestLocked(keys[j], e)
			e.mu.Unlock()
			if ok {
				fold ^= d
			}
		}
		out[i] = fold
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
	nowMs := s.NowMillis()
	sh := &s.shards[shard]
	sh.mu.RLock()
	keys := make([]string, 0, len(sh.m))
	entries := make([]*entry, 0, len(sh.m))
	for k, e := range sh.m {
		if filter != nil && !filter(k) {
			continue
		}
		keys = append(keys, k)
		entries = append(entries, e)
	}
	sh.mu.RUnlock()
	out := make([]KeyDigest, 0, len(entries))
	for j, e := range entries {
		e.mu.Lock()
		if e.dead {
			e.mu.Unlock()
			continue
		}
		if dl := e.deadline.Load(); dl != 0 && nowMs >= dl {
			e.mu.Unlock()
			continue
		}
		d, ok := keyDigestLocked(keys[j], e)
		e.mu.Unlock()
		if ok {
			out = append(out, KeyDigest{Key: keys[j], Digest: d})
		}
	}
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
