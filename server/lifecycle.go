package server

// Keyspace lifecycle: per-key absolute expiry deadlines, lazy + sampled
// background expiry, and memory-watermark eviction of cold keys.
//
// Deadlines are stored as absolute unix-millisecond instants, never as
// durations: replicas holding the same key expire it at the same wall
// instant without gossiping anything, and a deadline survives dump/
// restore, snapshot and rebalance verbatim (the same determinism trick
// the window rings use for their slice edges). Expiry is checked lazily
// on every read/write path — an expired key behaves exactly like a
// missing one — and a background sweeper reclaims keys nobody touches.
//
// Expiry reuses the store's deletion machinery: the entry is marked
// dead and version-bumped under its own lock (so a count that holds the
// entry sees it dead, and a TaggedBlob handed out before the deadline
// can never delete a recreated key), then unlinked from its shard map.
// The watermark eviction pass ranks keys by their entry version — the
// store-wide write sequence number of each key's last change — and
// evicts the least recently written first until resident bytes drop to
// the low watermark.

import (
	"sort"
	"time"

	"exaloglog/window"
)

// MaxTTLMillis bounds EXPIRE/PEXPIRE arguments so deadline arithmetic
// can never overflow int64 milliseconds (~35,000 years out);
// MaxDeadlineMillis bounds the absolute deadlines wire and snapshot
// decoders accept. Exported so the cluster layer validates forwarded
// lifecycle verbs against the same bounds the store enforces.
const (
	MaxTTLMillis      = int64(1) << 50
	MaxDeadlineMillis = int64(1) << 53
)

// SetClock replaces the store's time source (default time.Now) — the
// injection point for deterministic expiry tests. Call before serving;
// SetClock is not safe to call concurrently with commands.
func (s *Store) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	s.now = now
}

// NowMillis returns the store clock's current unix-millisecond time —
// the instant EXPIRE deadlines are computed against. Exposed so layers
// above (the cluster package) compute deadlines with the same clock
// they will be judged by.
func (s *Store) NowMillis() int64 { return s.now().UnixMilli() }

// SetDefaultTTL makes every key created from now on expire ttl after
// its creation (0, the default, disables). Explicit EXPIRE/PERSIST
// override it per key. Call before serving.
func (s *Store) SetDefaultTTL(ttl time.Duration) { s.defaultTTL = ttl }

// SetMemoryWatermarks configures eviction: when the approximate
// resident sketch bytes exceed high, EvictToWatermark removes
// cold keys until resident bytes drop to low. high <= 0 disables.
// Call before serving.
func (s *Store) SetMemoryWatermarks(high, low int64) {
	if low > high {
		low = high
	}
	s.hiWater, s.loWater = high, low
}

// LifecycleStats returns the cumulative expired and evicted key counts
// and the current approximate resident sketch bytes — the STATS
// expired_keys/evicted_keys/resident_bytes gauges.
func (s *Store) LifecycleStats() (expired, evicted uint64, residentBytes int64) {
	return s.expiredKeys.Load(), s.evictedKeys.Load(), s.residentBytes.Load()
}

// newEntry builds a live entry holding an empty value of the given
// type, stamped with the store's default TTL and accounted against the
// resident-bytes gauge. Callers link it into a shard map themselves.
func (s *Store) newEntry(tag byte) *entry {
	e := &entry{}
	if tag == valueTagWindow {
		c, err := window.New(s.cfg, s.winSlice, s.winSlices)
		if err != nil {
			panic(err) // unreachable: cfg and geometry validated up front
		}
		e.setLocked(&pendingValue{win: c})
	} else {
		e.setLocked(&pendingValue{ell: s.emptyEll()})
	}
	if s.defaultTTL > 0 {
		e.deadline.Store(s.NowMillis() + s.defaultTTL.Milliseconds())
	}
	s.resizeLocked(e)
	return e
}

// entryOverhead is what a key holds on the heap beside its value: the
// entry struct (64 bytes, the plain key's Hybrid inside it) and its share
// of the shard map — a slot, measured at about 46 bytes, and a key string
// of up to 16. With sparse values of a few dozen bytes this is most of a
// small key, so the gauge counts it, and it is then within about 1 % of
// the live heap of a store's keys (TestResidentBytesTracksLiveHeap). On a
// served keyspace it reads some 4 % under
// (cluster.TestResidentBytesTracksLiveHeapServed): the gap is the node
// itself — server, store shards, peer pools — about 35 KB an idle node,
// which is no key's. What busy connections hold is reported beside the
// gauge, as conn_buffer_bytes.
const entryOverhead = 128

// killLocked marks e dead and releases its resident-bytes accounting;
// the caller holds e.mu. Idempotent: a second kill is a no-op, so the
// expiry, Delete and replaceAll paths can race without double-counting.
func (s *Store) killLocked(e *entry) {
	if e.dead {
		return
	}
	e.dead = true
	s.residentBytes.Add(-int64(e.size))
	e.size = 0
}

// resizeLocked refreshes e's resident-bytes accounting after a mutation
// that may have changed the value's footprint, or charges a new entry's;
// the caller holds e.mu or has not shared e yet.
func (s *Store) resizeLocked(e *entry) {
	if e.dead {
		return
	}
	if n := int32(e.SizeBytes() + entryOverhead); n != e.size {
		s.residentBytes.Add(int64(n - e.size))
		e.size = n
	}
}

// expireDueLocked expires e if its deadline has passed; the caller
// holds e.mu. The dead mark and the version bump happen atomically under
// that lock, so a concurrent read can never count the pre-expiry sketch
// and a TaggedBlob dumped before the deadline can never delete a
// recreated key. The caller must unlink e from its shard map when true
// is returned.
func (s *Store) expireDueLocked(e *entry) bool {
	if e.dead {
		return false
	}
	dl := e.deadline.Load()
	if dl == 0 || s.NowMillis() < dl {
		return false
	}
	s.killLocked(e)
	s.changedLocked(e)
	s.expiredKeys.Add(1)
	return true
}

// unlink removes the (key, e) binding from its shard map if still
// present. Comparing identities keeps it safe against a racing
// recreate: a new entry under the same key is never dropped.
func (s *Store) unlink(key string, e *entry) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if sh.m[key] == e {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

// expireIfDue lazily collects e when its deadline passed, reporting
// whether it did. Lock order: e.mu strictly before the shard lock is
// taken (never nested), matching every other store path.
func (s *Store) expireIfDue(key string, e *entry) bool {
	if e.deadline.Load() == 0 {
		return false
	}
	e.mu.Lock()
	due := s.expireDueLocked(e)
	e.mu.Unlock()
	if due {
		s.unlink(key, e)
	}
	return due
}

// ExpireAt sets key's absolute expiry deadline (unix milliseconds); it
// reports whether the key existed. The deadline change bumps the entry
// version: a rebalance tag dumped before the EXPIRE must not delete
// the key out from under its new lifetime.
func (s *Store) ExpireAt(key string, deadlineMillis int64) bool {
	e := s.lookup(key)
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return false
	}
	e.deadline.Store(deadlineMillis)
	s.changedLocked(e)
	return true
}

// Expire sets key's deadline ttl from now (store clock); it reports
// whether the key existed.
func (s *Store) Expire(key string, ttl time.Duration) bool {
	return s.ExpireAt(key, s.NowMillis()+ttl.Milliseconds())
}

// DeadlineOf returns key's absolute deadline in unix milliseconds (0 =
// no deadline); ok is false if the key is missing (or expired — the
// lookup collects it).
func (s *Store) DeadlineOf(key string) (deadlineMillis int64, ok bool) {
	e := s.lookup(key)
	if e == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return 0, false
	}
	return e.deadline.Load(), true
}

// Persist removes key's deadline; it reports whether a deadline was
// removed (false: missing key or no deadline). Like ExpireAt it bumps
// the version — the lifetime change is observable state.
func (s *Store) Persist(key string) bool {
	e := s.lookup(key)
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead || e.deadline.Load() == 0 {
		return false
	}
	e.deadline.Store(0)
	s.changedLocked(e)
	return true
}

// SweepExpired scans up to samplePerShard keys of every shard (map
// iteration order rotates the sample) and collects the expired ones,
// returning how many. samplePerShard <= 0 scans every key. This is the
// background half of expiry — reclaiming keys nobody reads — and it is
// driven by elld's sweep ticker (or directly, with a fake clock, by
// tests).
func (s *Store) SweepExpired(samplePerShard int) (expired int) {
	nowMs := s.NowMillis()
	type victim struct {
		key string
		e   *entry
	}
	for i := range s.shards {
		sh := &s.shards[i]
		var victims []victim
		sh.mu.RLock()
		scanned := 0
		for k, e := range sh.m {
			if samplePerShard > 0 && scanned >= samplePerShard {
				break
			}
			scanned++
			if dl := e.deadline.Load(); dl != 0 && nowMs >= dl {
				victims = append(victims, victim{k, e})
			}
		}
		sh.mu.RUnlock()
		for _, v := range victims {
			if s.expireIfDue(v.key, v.e) {
				expired++
			}
		}
	}
	return expired
}

// EvictToWatermark evicts cold keys when resident sketch bytes exceed
// the high watermark, until they drop to the low watermark, returning
// how many keys were evicted. Coldness is ranked by the entry version,
// the store-wide write sequence number of the key's last change, so the
// keys written least recently go first, however often they were written
// before. A key that takes a write between ranking and eviction is spared
// (its version no longer matches).
func (s *Store) EvictToWatermark() (evicted int) {
	if s.hiWater <= 0 || s.residentBytes.Load() <= s.hiWater {
		return 0
	}
	type cand struct {
		key string
		e   *entry
		ver uint64
	}
	var cands []cand
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			cands = append(cands, cand{key: k, e: e})
		}
		sh.mu.RUnlock()
	}
	for i := range cands {
		cands[i].e.mu.Lock()
		cands[i].ver = cands[i].e.ver
		cands[i].e.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ver < cands[j].ver })
	for _, c := range cands {
		if s.residentBytes.Load() <= s.loWater {
			break
		}
		if s.evictIfUnchanged(c.key, c.e, c.ver) {
			evicted++
		}
	}
	return evicted
}

// evictIfUnchanged removes (key, e) only if the entry is still exactly
// the ranked state — identity and version both match — mirroring
// DeleteIfUnchanged's compare-and-delete.
func (s *Store) evictIfUnchanged(key string, e *entry, ver uint64) bool {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m[key] != e {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead || e.ver != ver {
		return false
	}
	s.killLocked(e)
	s.evictedKeys.Add(1)
	delete(sh.m, key)
	return true
}

// Sweep runs one background lifecycle tick: a sampled expiry scan, then
// a watermark check. The elld sweep ticker calls this.
func (s *Store) Sweep(samplePerShard int) (expired, evicted int) {
	expired = s.SweepExpired(samplePerShard)
	evicted = s.EvictToWatermark()
	return expired, evicted
}
