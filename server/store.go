// Package server provides a small TCP key→sketch service in the style of
// the PFADD / PFCOUNT / PFMERGE commands that Redis offers on top of
// HyperLogLog — the "query languages of many data stores offer special
// commands for approximate distinct counting" motivation of the paper's
// introduction — backed by ExaLogLog sketches. Keys are polymorphic:
// beside plain sketches the store holds sliding-window slice-rings
// (WADD / WCOUNT / WINFO), the paper's port-scan/DDoS workload, behind
// the same sharding, persistence and replication machinery.
//
// The wire protocol is a line-oriented subset of the Redis conventions:
// one command per line, space-separated tokens, and typed single-line
// replies ("+OK", ":123", "-ERR ...", "=<base64>"). See Server for the
// command set.
package server

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
	"exaloglog/window"
)

// numShards is the number of independently locked buckets the key space
// is hashed over. A power of two so the shard index is a mask. 128 is
// comfortably above any realistic core count, so two concurrent
// commands on different keys almost never share a shard lock — and even
// when they do, the shard lock only guards the map lookup; the sketch
// mutation itself is serialized per entry.
const numShards = 128

// shardSeed decorrelates the shard hash from the sketches' element
// hash (which uses seed 0).
const shardSeed = 0x5bd1e995a967bd1e

// entry is one key's value plus its own lock, so concurrent commands
// on different keys never contend. The value is a plain sketch or a
// window ring (see value.go); everything else here — the version and
// the death mark — is value-type-agnostic machinery. The entry caches
// nothing derived from its value: a count estimates and a digest
// serializes on demand (internal/core's BenchmarkEstimate, this
// package's BenchmarkShardDigests), which keeps a key's entry in the
// 64-byte size class. ver is the store's write sequence
// number at the entry's last observable state change (an insert that
// changed registers, a merge, a restore, a lifetime change): it orders
// writes across keys, which eviction ranks by, and together with the
// entry's identity it lets DeleteIfUnchanged detect writes that landed
// after a dump. dead marks an entry that has been unlinked from its
// shard map: a mutator that raced a Delete re-fetches instead of writing
// into an orphan.
type entry struct {
	mu  sync.Mutex
	win *window.Counter // a window key's ring; nil for a plain key
	ver uint64

	// deadline is the key's absolute expiry instant in unix
	// milliseconds, 0 meaning none. Atomic so lookup paths can skip the
	// entry lock for the overwhelmingly common no-deadline case; the
	// expiry decision itself happens under e.mu (see expireDueLocked).
	deadline atomic.Int64

	// ell is a plain key's sketch, held here by value, so a plain key is
	// one allocation beside its tokens, not two. A window key leaves it
	// empty.
	ell core.Hybrid

	// size is the value's approximate resident footprint as last
	// accounted against the store's resident-bytes gauge (e.mu held).
	// 32 bits and the flag beside it keep the entry in the allocator's
	// 64-byte size class (TestEntryStaysInItsSizeClass).
	size int32
	dead bool
}

// changedLocked records an observable state change of e — its value or
// its lifetime; the caller holds e.mu. Every mutation path calls it: it
// stamps ver with the next write sequence number, which eviction ranking
// and TaggedBlob compare.
func (s *Store) changedLocked(e *entry) {
	e.ver = s.writeSeq.Add(1)
}

// CacheStats reports single-key counts as estimate-cache hits and
// misses. The store caches no estimate, so hits is always 0 and misses
// counts every single-key count.
func (s *Store) CacheStats() (hits, misses uint64) {
	return 0, s.estimates.Load()
}

// ShardsUsed returns how many of the store's hash shards hold at least
// one key — a cheap skew indicator for the STATS reply.
func (s *Store) ShardsUsed() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		if len(sh.m) > 0 {
			n++
		}
		sh.mu.RUnlock()
	}
	return n
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*entry
}

// Store is a named collection of sketch values, safe for concurrent
// use. Keys are hash-sharded over independently locked buckets and each
// value carries its own lock, so PFADDs to different keys proceed in
// parallel. All sketches created through Add share the store's default
// configuration; Restore may introduce sketches with other configurations,
// which still count and merge together as long as they share the
// t-parameter (Section 4.1 of the paper). Windowed values created
// through WindowAdd use the store's window geometry (SetWindowConfig).
//
// Every method reaches a key through one key path: lookup, or getOrCreate
// and lockedEntry to create one. A method with a byte-slice key (AddBytes,
// CountBytes, …) only passes the key down as a view — a string over the
// caller's bytes (lineKey) — flagged as such. The path keeps a key in one
// place only: getOrCreate stores a view's copy and a Go caller's string as
// it is, so no caller's byte is ever retained.
type Store struct {
	cfg core.Config

	// winSlice/winSlices is the ring geometry a WindowAdd-created key
	// gets. Set before serving (SetWindowConfig); read-only afterwards.
	winSlice  time.Duration
	winSlices int

	// now is the store's time source — expiry deadlines are judged
	// against it. Defaults to time.Now; SetClock injects a fake clock
	// for deterministic lifecycle tests. Set before serving.
	now func() time.Time

	// defaultTTL, when positive, stamps every created key with a
	// deadline defaultTTL from creation. Set before serving.
	defaultTTL time.Duration

	// hiWater/loWater are the resident-bytes eviction watermarks
	// (SetMemoryWatermarks); hiWater <= 0 disables eviction. Set
	// before serving.
	hiWater, loWater int64

	shards [numShards]shard

	// unions pools the unions Count and Merge take, so a warm one
	// allocates nothing.
	unions sync.Pool

	metaMu sync.RWMutex
	meta   []byte

	// estimates counts single-key counts (CacheStats).
	estimates atomic.Uint64

	// Lifecycle gauges: cumulative lazily/sweeper-expired keys,
	// cumulative watermark-evicted keys, and the approximate resident
	// footprint of all live values (see entry.size).
	expiredKeys   atomic.Uint64
	evictedKeys   atomic.Uint64
	residentBytes atomic.Int64

	// writeSeq numbers the store's observable state changes; an entry's
	// ver is the number of its last one (changedLocked).
	writeSeq atomic.Uint64
}

// NewStore returns an empty store whose sketches use configuration cfg.
func NewStore(cfg core.Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, winSlice: defaultWindowSlice, winSlices: defaultWindowSlices, now: time.Now}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*entry)
	}
	s.unions.New = func() any { return new(core.Union) }
	return s, nil
}

// SetWindowConfig sets the slice duration and slice count a WindowAdd
// uses when it creates a new windowed key (existing keys keep their
// geometry; serialized rings carry their own). The maximum queryable
// window is slice·slices. Call before serving; SetWindowConfig is not
// safe to call concurrently with commands.
func (s *Store) SetWindowConfig(slice time.Duration, slices int) error {
	if _, err := window.New(s.cfg, slice, slices); err != nil {
		return err
	}
	s.winSlice, s.winSlices = slice, slices
	return nil
}

func shardIndex(key string) int {
	return int(hashing.WyString(key, shardSeed) & (numShards - 1))
}

func (s *Store) shardOf(key string) *shard {
	return &s.shards[shardIndex(key)]
}

// lineKey returns a view of b: a string over b's bytes (unsafe.String), no
// copy. It is valid only until the byte entry point that made it returns,
// so the store looks keys up by a view but never keeps one (getOrCreate).
func lineKey(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// lookup returns the live entry for key, or nil. An entry whose expiry
// deadline has passed is collected here — every read path goes through
// lookup, so an expired key behaves exactly like a missing one.
func (s *Store) lookup(key string) *entry {
	sh := s.shardOf(key)
	sh.mu.RLock()
	e := sh.m[key]
	sh.mu.RUnlock()
	if e != nil && s.expireIfDue(key, e) {
		return nil
	}
	return e
}

// emptyEll is an empty plain sketch with the store's configuration.
func (s *Store) emptyEll() core.Hybrid {
	h, err := core.MakeHybrid(s.cfg)
	if err != nil {
		panic(err) // unreachable: cfg validated up front
	}
	return h
}

// getOrCreate returns the live entry for key, creating it with an
// empty value of the given type when absent. A concurrent creation of
// the same key with another type wins the usual way — first in; the
// loser's command then fails its type check. An expired entry is
// collected and re-created fresh — writing into a key past its
// deadline must behave exactly like writing into a missing one.
//
// getOrCreate is the one place the store keeps a key: a new entry's map
// key is the caller's string as it is, or a copy of it if view says it is
// a view (lineKey). A Go caller's key is thus shared, not cloned, and no
// line byte is ever retained.
func (s *Store) getOrCreate(key string, view bool, tag byte) *entry {
	for {
		sh := s.shardOf(key)
		sh.mu.RLock()
		e := sh.m[key]
		sh.mu.RUnlock()
		if e == nil {
			sh.mu.Lock()
			if e = sh.m[key]; e == nil {
				if view {
					key = strings.Clone(key)
				}
				e = s.newEntry(tag)
				sh.m[key] = e
				sh.mu.Unlock()
				return e
			}
			sh.mu.Unlock()
		}
		if s.expireIfDue(key, e) {
			continue
		}
		return e
	}
}

// addBatch is how many element hashes a write keeps on the stack before
// handing them to the sketch in one call: every realistic PFADD. A larger
// write hashes into a pooled array (hashScratch).
const addBatch = 16

// hashScratch pools the hash arrays of writes of more than addBatch
// elements, so such a write neither allocates its hashes nor grows them
// step by step.
var hashScratch = sync.Pool{New: func() any { return new([]uint64) }}

// hashes holds one write's element hashes: in buf up to addBatch of them,
// in an array from hashScratch beyond. ofStrings and ofBytes fill one.
type hashes struct {
	buf    [addBatch]uint64
	n      int
	pooled *[]uint64
}

// room makes h hold n hashes and returns them, to be filled in.
func (h *hashes) room(n int) []uint64 {
	h.n = n
	if n > len(h.buf) {
		h.pooled = hashScratch.Get().(*[]uint64)
		if cap(*h.pooled) < n {
			*h.pooled = make([]uint64, n)
		}
	}
	return h.list()
}

// list returns the hashes.
func (h *hashes) list() []uint64 {
	if h.pooled != nil {
		return (*h.pooled)[:h.n]
	}
	return h.buf[:h.n]
}

// ofStrings hashes the elements.
func ofStrings(elements []string) (h hashes) {
	out := h.room(len(elements))
	for i, el := range elements {
		out[i] = hashing.WyString(el, 0)
	}
	return h
}

// ofBytes hashes the elements.
func ofBytes(elements [][]byte) (h hashes) {
	out := h.room(len(elements))
	for i, el := range elements {
		out[i] = hashing.Wy64(el, 0)
	}
	return h
}

// release gives a pooled array back; the hashes are dead after it.
func (h *hashes) release() {
	if h.pooled != nil {
		hashScratch.Put(h.pooled)
	}
}

// Add inserts elements into the sketch at key, creating it if needed.
// It returns true if any insertion changed the sketch state (the Redis
// PFADD convention): while the key is sparse that a new hash token was
// recorded, once dense that a register changed. A key holding another
// value type is ErrWrongType.
func (s *Store) Add(key string, elements ...string) (bool, error) {
	return s.add(key, false, ofStrings(elements))
}

// AddBytes is Add with byte-slice key and elements; it allocates nothing
// once the key exists, which makes it the server's PFADD fast path. The
// slices are not retained.
func (s *Store) AddBytes(key []byte, elements [][]byte) (bool, error) {
	return s.add(lineKey(key), true, ofBytes(elements))
}

// add is Add of the hashed elements; view says whether key is a view.
func (s *Store) add(key string, view bool, hs hashes) (bool, error) {
	defer hs.release()
	e := s.lockedEntry(key, view, valueTagEll)
	defer e.mu.Unlock()
	sk, err := e.ellLocked()
	if err != nil {
		return false, fmt.Errorf("server: add %q: %w", key, err)
	}
	changed := sk.AddHashes(hs.list())
	if changed {
		s.changedLocked(e)
		s.resizeLocked(e) // a sparse value grows with every new token
	}
	return changed, nil
}

// Batch hashes elements, as Add does, into one token batch at the store's
// configuration (core.MakeBatch): what AddBatch and WindowAddBatch take in,
// here or, as its MarshalBinary bytes, on another node.
func (s *Store) Batch(elements []string) (core.Hybrid, error) {
	hs := ofStrings(elements)
	defer hs.release()
	return core.MakeBatch(s.cfg, hs.list(), nil)
}

// BatchBytes is Batch with byte-slice elements, which are not retained.
func (s *Store) BatchBytes(elements [][]byte) (core.Hybrid, error) {
	hs := ofBytes(elements)
	defer hs.release()
	return core.MakeBatch(s.cfg, hs.list(), nil)
}

// AddBatch inserts the elements of a token batch (Batch, or the batch a
// forwarded write carried) into the plain sketch at key, creating it if
// needed, and reports whether the sketch changed — what Add of the batch's
// elements would report. An empty key takes a copy of the batch as it is
// encoded; otherwise the batch must have the key's configuration. The
// batch must hold at least one element and is not retained. A key holding
// another value type is ErrWrongType.
func (s *Store) AddBatch(key string, batch *core.Hybrid) (bool, error) {
	return s.addBatch(key, false, batch)
}

// AddBatchBytes is AddBatch with a byte-slice key, which is not retained:
// the receiving end of a forwarded write.
func (s *Store) AddBatchBytes(key []byte, batch *core.Hybrid) (bool, error) {
	return s.addBatch(lineKey(key), true, batch)
}

// addBatch is AddBatch; view says whether key is a view.
func (s *Store) addBatch(key string, view bool, batch *core.Hybrid) (bool, error) {
	if batch.IsEmpty() {
		return false, fmt.Errorf("server: add %q: %w", key, errEmptyBatch)
	}
	e := s.lockedEntry(key, view, valueTagEll)
	defer e.mu.Unlock()
	sk, err := e.ellLocked()
	if err != nil {
		return false, fmt.Errorf("server: add %q: %w", key, err)
	}
	changed, err := sk.Absorb(batch)
	if changed {
		s.changedLocked(e)
		s.resizeLocked(e)
	}
	if err != nil {
		return false, fmt.Errorf("server: add %q: %w", key, err)
	}
	return changed, nil
}

var errEmptyBatch = errors.New("a batch of no elements")

// lockedEntry returns the live entry for key, created with an empty value
// of type tag if absent, with its lock held; view is getOrCreate's.
func (s *Store) lockedEntry(key string, view bool, tag byte) *entry {
	for {
		e := s.getOrCreate(key, view, tag)
		e.mu.Lock()
		if !e.dead {
			return e
		}
		e.mu.Unlock() // deleted between lookup and lock; re-create
	}
}

// WindowAdd inserts elements observed at ts into the windowed counter
// at key, creating it (with the store's window geometry) if needed. It
// returns how many of the elements were accepted — the rest were older
// than the ring span and are counted in the ring's Dropped statistic,
// observable through WINFO. A key holding another value type is
// ErrWrongType.
func (s *Store) WindowAdd(key string, ts time.Time, elements ...string) (int, error) {
	return s.windowAdd(key, false, ts, ofStrings(elements))
}

// WindowAddBytes is WindowAdd with byte-slice key and elements and a
// unix-millisecond timestamp — the server's WADD fast path. The slices
// are not retained.
func (s *Store) WindowAddBytes(key []byte, tsMillis int64, elements [][]byte) (int, error) {
	return s.windowAdd(lineKey(key), true, time.UnixMilli(tsMillis), ofBytes(elements))
}

// windowAdd is WindowAdd of the hashed elements; view says whether key is
// a view. The hashes go straight into the slice of ts, one by one for a
// small write (window.Counter.AddHashes), never through the batch codec a
// forwarded write travels in.
func (s *Store) windowAdd(key string, view bool, ts time.Time, hs hashes) (int, error) {
	defer hs.release()
	e := s.lockedEntry(key, view, valueTagWindow)
	defer e.mu.Unlock()
	c, err := e.windowLocked()
	if err != nil {
		return 0, fmt.Errorf("server: window add %q: %w", key, err)
	}
	accepted := 0
	if hs.n > 0 {
		accepted = c.AddHashes(ts, hs.list())
	}
	s.changedLocked(e)
	s.resizeLocked(e)
	return accepted, nil
}

// WindowAddBatch inserts n elements observed at the unix-millisecond
// timestamp tsMillis, given as their token batch (see AddBatch), into the
// windowed counter at key, creating it if needed, and returns how many it
// accepted: n, or none when they are older than the ring span. The batch
// must have the ring's configuration and hold at least one element; it is
// not retained. A key holding another value type is ErrWrongType.
func (s *Store) WindowAddBatch(key string, tsMillis int64, batch *core.Hybrid, n int) (int, error) {
	return s.windowAddBatch(key, false, tsMillis, batch, n)
}

// WindowAddBatchBytes is WindowAddBatch with a byte-slice key, which is
// not retained: the receiving end of a forwarded write.
func (s *Store) WindowAddBatchBytes(key []byte, tsMillis int64, batch *core.Hybrid, n int) (int, error) {
	return s.windowAddBatch(lineKey(key), true, tsMillis, batch, n)
}

// windowAddBatch is WindowAddBatch; view says whether key is a view.
func (s *Store) windowAddBatch(key string, view bool, tsMillis int64, batch *core.Hybrid, n int) (int, error) {
	if n < 1 || batch.IsEmpty() {
		return 0, fmt.Errorf("server: window add %q: %w", key, errEmptyBatch)
	}
	e := s.lockedEntry(key, view, valueTagWindow)
	defer e.mu.Unlock()
	c, err := e.windowLocked()
	if err != nil {
		return 0, fmt.Errorf("server: window add %q: %w", key, err)
	}
	accepted, err := c.AddBatch(time.UnixMilli(tsMillis), batch, n)
	if err != nil {
		return 0, fmt.Errorf("server: window add %q: %w", key, err)
	}
	s.changedLocked(e)
	s.resizeLocked(e)
	return accepted, nil
}

// WindowCount estimates the number of distinct elements the windowed
// counter at key observed in (now-win, now]. A zero now means the
// counter's own newest observed timestamp — the deterministic default
// for clockless callers. A missing key counts 0; a key holding another
// value type is ErrWrongType.
func (s *Store) WindowCount(key string, win time.Duration, now time.Time) (float64, error) {
	e := s.lookup(key)
	if e == nil {
		return 0, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return 0, nil
	}
	c, err := e.windowLocked()
	if err != nil {
		return 0, fmt.Errorf("server: window count %q: %w", key, err)
	}
	if now.IsZero() {
		now = c.Latest()
		if now.IsZero() {
			return 0, nil // nothing observed yet
		}
	}
	return c.Estimate(now, win), nil
}

// WindowInfo describes the windowed counter at key (the WINFO reply
// body, including the Dropped statistic); ok is false if the key is
// missing. A key holding another value type is ErrWrongType.
func (s *Store) WindowInfo(key string) (info string, ok bool, err error) {
	e := s.lookup(key)
	if e == nil {
		return "", false, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return "", false, nil
	}
	c, err := e.windowLocked()
	if err != nil {
		return "", false, fmt.Errorf("server: window info %q: %w", key, err)
	}
	return c.Describe(), true, nil
}

// Count estimates the number of distinct elements in the union of the
// sketches at the given keys. Missing keys contribute nothing; a
// windowed key is ErrWrongType (query those with WindowCount). Keys
// with other configurations are aligned via reduction when they share t.
// One key costs its estimate and a copy of its sketch, taken under its
// lock so that the estimate is not.
func (s *Store) Count(keys ...string) (float64, error) {
	return s.count(len(keys), func(i int) string { return keys[i] })
}

// CountBytes is Count with byte-slice keys — the server's PFCOUNT fast
// path. The slices are not retained.
func (s *Store) CountBytes(keys [][]byte) (float64, error) {
	return s.count(len(keys), func(i int) string { return lineKey(keys[i]) })
}

// count is Count of the n keys key returns.
func (s *Store) count(n int, key func(i int) string) (float64, error) {
	if n == 1 {
		s.estimates.Add(1)
	}
	u, err := s.union("count", n, key)
	defer s.unions.Put(u)
	if err != nil {
		return 0, err
	}
	return u.Estimate(), nil
}

// union adds the plain sketches at the n keys key returns to a pooled
// union, each under its own lock; a missing key adds nothing. The caller
// puts the union back. A window key, or one whose t differs from the
// union's, fails the verb.
func (s *Store) union(verb string, n int, key func(i int) string) (u *core.Union, err error) {
	u = s.unions.Get().(*core.Union)
	u.Reset(s.cfg)
	for i := range n {
		k := key(i)
		e := s.lookup(k)
		if e == nil {
			continue
		}
		e.mu.Lock()
		if !e.dead { // a concurrently deleted key adds nothing
			var sk *core.Hybrid
			if sk, err = e.ellLocked(); err == nil {
				err = u.Add(sk)
			}
		}
		e.mu.Unlock()
		if err != nil {
			return u, fmt.Errorf("server: %s %q: %w", verb, k, err)
		}
	}
	return u, nil
}

// Merge stores the union of the source keys' sketches at dest (which may
// itself be one of the sources, and is created if absent). The union is
// taken without holding dest's lock and then folded into dest in place, so
// a write racing the merge is never lost. A union below break-even leaves
// dest sparse. Windowed keys — sources or dest — are ErrWrongType.
func (s *Store) Merge(dest string, sources ...string) error {
	u, err := s.union("merge", len(sources), func(i int) string { return sources[i] })
	defer s.unions.Put(u)
	if err != nil {
		return err
	}
	acc := u.Hybrid()
	for {
		// When dest would be created, fail an incompatible merge BEFORE
		// getOrCreate so the error cannot leave an empty dest key behind
		// as a side effect. Merging errors only on t mismatch.
		if s.lookup(dest) == nil && acc.Config().T != s.cfg.T {
			return fmt.Errorf("server: merge %q: t=%d sketches cannot merge into the store's t=%d", dest, acc.Config().T, s.cfg.T)
		}
		e := s.getOrCreate(dest, false, valueTagEll)
		e.mu.Lock()
		if e.dead {
			e.mu.Unlock()
			continue
		}
		sk, err := e.ellLocked()
		if err == nil {
			err = sk.Merge(&acc)
		}
		if err != nil {
			e.mu.Unlock()
			return fmt.Errorf("server: merge %q: %w", dest, err)
		}
		s.changedLocked(e)
		s.resizeLocked(e)
		e.mu.Unlock()
		return nil
	}
}

// Delete removes key; it reports whether the key existed. A key whose
// deadline already passed counts as missing.
func (s *Store) Delete(key string) bool {
	sh := s.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		return false
	}
	e.mu.Lock()
	expired := s.expireDueLocked(e)
	s.killLocked(e)
	e.mu.Unlock()
	delete(sh.m, key)
	sh.mu.Unlock()
	return !expired
}

// Keys returns all live keys in sorted order; keys past their deadline
// but not yet collected are filtered out (the deadline check is
// lock-free, so KEYS stays cheap).
func (s *Store) Keys() []string {
	nowMs := s.NowMillis()
	var keys []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			if dl := e.deadline.Load(); dl != 0 && nowMs >= dl {
				continue
			}
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// Dump serializes the value at key; ok is false if the key is missing.
// A plain sketch is the raw core format once dense and an "ELT3" token
// blob while sparse (Hybrid.UnmarshalBinary reads both); windowed keys
// serialize slot-wise (see the window package), so a scatter-gather
// reader can merge rings instead of collapsed sketches.
func (s *Store) Dump(key string) (data []byte, ok bool) {
	t, ok := s.DumpTagged(key)
	return t.Blob, ok
}

// Restore replaces the value at key with the serialized value data
// (produced by Dump or any exaloglog/window MarshalBinary). The blob's
// own magic selects the value type, so Restore may change a key's type.
func (s *Store) Restore(key string, data []byte) error {
	val, err := decodeValue(data)
	if err != nil {
		return err
	}
	e := s.lockedEntry(key, false, val.tag())
	defer e.mu.Unlock()
	e.setLocked(&val)
	s.changedLocked(e)
	s.resizeLocked(e)
	return nil
}

// MergeBlob merges a serialized value into the value at key, creating
// the key if absent. Unlike Restore it never discards existing state,
// which makes it idempotent and safe to re-send — the property cluster
// replication and rebalance rely on (paper Section 1: merging is
// commutative and idempotent). Windowed blobs merge slot-wise. A
// type mismatch against a non-empty existing value is ErrWrongType.
func (s *Store) MergeBlob(key string, data []byte) error {
	return s.mergeBlob(key, data, 0)
}

// mergeBlob is MergeBlob for blobs that travel with the source key's
// expiry deadline (unix milliseconds, 0 = none) — every transfer record
// does (AbsorbBatch), so a moved key keeps its lifetime. Deadlines merge
// monotonically: a fresh (empty) entry adopts the incoming deadline
// verbatim; otherwise the later of the two deadlines wins (treating a
// local "none" as adoptable, so a racing plain create cannot strip the
// TTL a rebalance blob carries), and an incoming "none" leaves local
// state alone — replicas converge on the maximum known deadline no
// matter the merge order, exactly like the sketches themselves. A blob
// whose deadline already passed is dropped whole: merging it could only
// resurrect a ghost.
func (s *Store) mergeBlob(key string, data []byte, deadlineMillis int64) error {
	in, err := decodeValue(data)
	if err != nil {
		return fmt.Errorf("server: merge blob into %q: %w", key, err)
	}
	if deadlineMillis != 0 && deadlineMillis <= s.NowMillis() {
		return nil
	}
	e := s.lockedEntry(key, false, in.tag())
	defer e.mu.Unlock()
	fresh := e.empty()
	if err := s.mergeValueLocked(e, &in); err != nil {
		return fmt.Errorf("server: merge blob into %q: %w", key, err)
	}
	if fresh {
		e.deadline.Store(deadlineMillis)
	} else if deadlineMillis != 0 {
		if dl := e.deadline.Load(); dl == 0 || deadlineMillis > dl {
			e.deadline.Store(deadlineMillis)
		}
	}
	s.changedLocked(e)
	s.resizeLocked(e)
	return nil
}

// AbsorbBatch merges every pair's blob into its key with MergeBlob's
// idempotent merge-not-replace semantics — the receiving end of a cluster
// transfer frame. It stops at the first failing pair and returns its
// error; re-applying an already-merged prefix is a no-op.
func (s *Store) AbsorbBatch(pairs []KeyBlob) error {
	for _, p := range pairs {
		if err := s.mergeBlob(p.Key, p.Blob, p.Deadline); err != nil {
			return err
		}
	}
	return nil
}

// mergeValueLocked folds the decoded value in into e's value; e.mu held.
func (s *Store) mergeValueLocked(e *entry, in *pendingValue) error {
	if e.empty() {
		// Freshly created (or still empty) entry: adopt the incoming
		// value wholesale — its type, configuration and geometry — as a
		// missing-key MergeBlob always has.
		e.setLocked(in)
		return nil
	}
	if in.win != nil {
		cur, err := e.windowLocked()
		if err != nil {
			return err
		}
		return cur.Merge(in.win)
	}
	cur, err := e.ellLocked()
	if err != nil {
		return err
	}
	return cur.Merge(&in.ell)
}

// TaggedBlob is a serialized value plus an opaque token identifying
// the exact state that was dumped; DeleteIfUnchanged uses the token to
// delete a key only if nothing mutated it after the dump. Deadline is the
// key's absolute expiry instant at dump time, which frames carry so a
// moved or restored key keeps its lifetime. The blob names its value type
// by its own magic.
type TaggedBlob struct {
	Blob     []byte
	Deadline int64
	e        *entry // identity: a key deleted and re-created is a new entry
	ver      uint64 // entry version at dump time: every mutation changes it
}

// EachTagged calls fn with every key the filter accepts and its value
// dumped with its state token (see DumpTagged), for callers that hand
// blobs off and must not drop a write that lands mid-handoff (the cluster's
// stray drain). It walks the store shard by shard and marshals one value at
// a time, holding no lock while fn runs, so fn may hand a blob off and
// delete its key. Each blob is a consistent snapshot of its value; keys
// created or deleted mid-walk may or may not be seen.
func (s *Store) EachTagged(filter func(key string) bool, fn func(key string, t TaggedBlob)) {
	for i := range s.shards {
		for _, ne := range s.shardEntries(i) {
			if !filter(ne.key) {
				continue
			}
			if t, ok := s.dumpEntry(ne.key, ne.e); ok {
				fn(ne.key, t)
			}
		}
	}
}

// namedEntry is a key and its entry, as a shard map held them.
type namedEntry struct {
	key string
	e   *entry
}

// shardEntries lists shard i's keys and entries, under its read lock only.
func (s *Store) shardEntries(i int) []namedEntry {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	entries := make([]namedEntry, 0, len(sh.m))
	for k, e := range sh.m {
		entries = append(entries, namedEntry{k, e})
	}
	return entries
}

// dumpEntry serializes e, the entry of key, under its lock; ok is false if
// e is dead. A key past its deadline is collected instead: an expired key
// must never be dumped, snapshotted or handed to a rebalance — that would
// resurrect it elsewhere.
func (s *Store) dumpEntry(key string, e *entry) (TaggedBlob, bool) {
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return TaggedBlob{}, false
	}
	if s.expireDueLocked(e) {
		e.mu.Unlock()
		s.unlink(key, e)
		return TaggedBlob{}, false
	}
	blob, err := e.MarshalBinary()
	t := TaggedBlob{Blob: blob, Deadline: e.deadline.Load(), e: e, ver: e.ver}
	e.mu.Unlock()
	return t, err == nil // marshaling a value cannot fail
}

// DeleteIfUnchanged removes key only if its value is still exactly the
// state t captured — no insertion, merge or restore landed since. It
// reports whether the key is gone (a key already absent counts). A
// false return means new data arrived after the dump; the caller must
// re-dump and hand the key off again before dropping it.
func (s *Store) DeleteIfUnchanged(key string, t TaggedBlob) bool {
	deleted, present := s.deleteIfUnchanged(key, t.e, t.ver)
	return deleted || !present
}

// deleteIfUnchanged is the store's one compare-and-delete: it removes key
// only if key still holds e, alive, at version ver, and reports whether it
// did and whether key held anything at all. The version check also covers
// the expiry race: lazy expiry bumps the version before the key can be
// recreated, so a state captured before the deadline never deletes the
// successor key.
func (s *Store) deleteIfUnchanged(key string, e *entry, ver uint64) (deleted, present bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.m[key]
	if !ok {
		return false, false
	}
	if cur != e {
		return false, true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead || e.ver != ver {
		return false, true
	}
	s.killLocked(e)
	delete(sh.m, key)
	return true, true
}

// Config returns the store's default sketch configuration.
func (s *Store) Config() core.Config { return s.cfg }

// SetMeta attaches an opaque metadata blob to the store. WriteSnapshot
// writes it into the snapshot header, ahead of the frames, and
// ReadSnapshot restores it (refusing one over 1 MB), so a layer above the
// store (e.g. the cluster package, which keeps its membership map here)
// survives restarts. nil clears it. The blob is copied.
func (s *Store) SetMeta(b []byte) {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if b == nil {
		s.meta = nil
		return
	}
	s.meta = append([]byte(nil), b...)
}

// Meta returns a copy of the store's metadata blob (nil if unset).
func (s *Store) Meta() []byte {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	if s.meta == nil {
		return nil
	}
	return append([]byte(nil), s.meta...)
}

// Info describes the value at key; ok is false if the key is missing.
// The rendering is value-typed: plain sketches report their
// configuration and estimate, windowed keys their ring geometry,
// Dropped statistic and full-span estimate.
func (s *Store) Info(key string) (info string, ok bool) {
	e := s.lookup(key)
	if e == nil {
		return "", false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return "", false
	}
	return e.Info(), true
}

// Len returns the number of keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
