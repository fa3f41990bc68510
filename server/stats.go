package server

// Per-verb serving statistics: atomic counters and fixed-bucket latency
// histograms hooked into the command-registry dispatch, so every verb —
// including the allocation-free PFADD/PFCOUNT/WADD fast paths — is
// measured without a lock or an allocation on the hot path. Each
// registry entry caches a pointer to its verb's stats on its first
// command; dispatch touches only that pointer, a time.Now() pair, and a
// handful of atomic adds.
//
// The numbers surface three ways: the STATS wire verb (one line of k=v
// tokens, see Server docs), CLUSTER STATS on cluster nodes (which adds
// the gossip/rebalance/batcher counters from the cluster package), and
// the Prometheus-text WriteMetrics used by elld's -metrics-addr
// listener.

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of exponential latency buckets. Bucket i
// holds samples whose microsecond value has bit length i — i.e. bucket
// 0 is <1µs, bucket i covers [2^(i-1), 2^i) µs — so bucket selection is
// one bits.Len64 and the top bucket (2^30µs ≈ 18min) is beyond any
// realistic command latency.
const histBuckets = 31

// LatencyHist is a fixed-bucket exponential latency histogram safe for
// concurrent Observe. Buckets are powers of two in microseconds (see
// histBuckets); quantiles are read out as the upper bound of the bucket
// the quantile falls in, clamped to the observed maximum — a ≤2×
// overestimate by construction, which is the usual trade for a
// histogram that costs one atomic add per sample. The zero value is
// ready to use.
type LatencyHist struct {
	buckets [histBuckets]atomic.Uint64
	sumNS   atomic.Uint64
	maxNS   atomic.Uint64
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	i := bits.Len64(us) // 0 for <1µs
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketUpperUS is the inclusive upper bound of bucket i in µs.
func bucketUpperUS(i int) uint64 {
	if i == 0 {
		return 1
	}
	return uint64(1) << uint(i)
}

// Observe records one sample.
func (h *LatencyHist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.sumNS.Add(uint64(d))
	ns := uint64(d)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *LatencyHist) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all recorded samples.
func (h *LatencyHist) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Max returns the largest recorded sample.
func (h *LatencyHist) Max() time.Duration { return time.Duration(h.maxNS.Load()) }

// Merge folds other's samples into h (max is kept, buckets and sums
// add). Neither histogram may be concurrently observed during a Merge
// if an exact snapshot is required; counts are never lost either way.
func (h *LatencyHist) Merge(other *LatencyHist) {
	for i := range h.buckets {
		h.buckets[i].Add(other.buckets[i].Load())
	}
	h.sumNS.Add(other.sumNS.Load())
	if m := other.maxNS.Load(); m > h.maxNS.Load() {
		h.maxNS.Store(m)
	}
}

// Quantile returns the q-quantile (0 < q ≤ 1) as the upper bound of the
// bucket the quantile falls in, clamped to the observed maximum; 0 when
// the histogram is empty.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			v := time.Duration(bucketUpperUS(i)) * time.Microsecond
			if max := h.Max(); max > 0 && v > max {
				v = max
			}
			return v
		}
	}
	return h.Max()
}

// reset zeroes the histogram. Concurrent Observes may land before or
// after individual buckets are cleared; the histogram stays internally
// consistent (counts only ever add).
func (h *LatencyHist) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.sumNS.Store(0)
	h.maxNS.Store(0)
}

// VerbStats is the per-verb counter block. All fields are atomics so
// the dispatch hot path records without locking; a reader sees each
// counter individually consistent (not a cross-counter snapshot). The
// call count is the histogram's sample count, so the two always agree
// (see TestStatsHammer).
type VerbStats struct {
	errs     atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	hist     LatencyHist
}

// record books one executed command.
func (v *VerbStats) record(in, out int, isErr bool, d time.Duration) {
	v.hist.Observe(d)
	v.bytesIn.Add(uint64(in))
	v.bytesOut.Add(uint64(out))
	if isErr {
		v.errs.Add(1)
	}
}

// Calls returns the number of commands dispatched to this verb.
func (v *VerbStats) Calls() uint64 { return v.hist.Count() }

// Errs returns how many of those commands replied with -ERR.
func (v *VerbStats) Errs() uint64 { return v.errs.Load() }

// Bytes returns the cumulative request and reply bytes.
func (v *VerbStats) Bytes() (in, out uint64) { return v.bytesIn.Load(), v.bytesOut.Load() }

// Hist returns the verb's latency histogram.
func (v *VerbStats) Hist() *LatencyHist { return &v.hist }

func (v *VerbStats) reset() {
	v.errs.Store(0)
	v.bytesIn.Store(0)
	v.bytesOut.Store(0)
	v.hist.reset()
}

// unknownVerb is the bucket unrecognized verbs are accounted under.
const unknownVerb = "UNKNOWN"

// Stats is a server's runtime statistics core. One instance lives in
// every Server; obtain it with Server.Stats. A verb's block is created by
// its first command and cached in the command registry, so the verbs map
// is read-mostly and dispatch touches it once per verb.
type Stats struct {
	mu        sync.Mutex
	verbs     map[string]*VerbStats
	unknown   *VerbStats   // the UNKNOWN block, cached for the dispatch miss path
	startNano atomic.Int64 // wall-clock ns at start or last Reset

	connsCur   atomic.Int64
	connsTotal atomic.Uint64
}

func newStats() *Stats {
	s := &Stats{verbs: make(map[string]*VerbStats)}
	s.startNano.Store(time.Now().UnixNano())
	s.unknown = s.verbFor(unknownVerb)
	return s
}

// verbFor returns the stats block for verb (upper-case; a subverb's is
// "VERB.SUB"), creating it on the verb's first command. Re-registering a
// verb (Handle replacing a builtin) keeps the existing block, so both
// handlers' traffic accumulates in one place.
func (s *Stats) verbFor(verb string) *VerbStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.verbs[verb]
	if !ok {
		v = &VerbStats{}
		s.verbs[verb] = v
	}
	return v
}

// Verb returns the stats block for verb (case-insensitive; "VERB.SUB" for
// a subverb), or nil if no command of that verb has run.
func (s *Stats) Verb(verb string) *VerbStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verbs[strings.ToUpper(verb)]
}

// Uptime returns the time since the server started or Stats were last
// reset.
func (s *Stats) Uptime() time.Duration {
	return time.Duration(time.Now().UnixNano() - s.startNano.Load())
}

// Conns returns the current and cumulative accepted connection counts.
func (s *Stats) Conns() (current int64, total uint64) {
	return s.connsCur.Load(), s.connsTotal.Load()
}

// Reset zeroes every counter and histogram and restarts the uptime
// clock. Commands in flight during the reset may land a sample on
// either side; counters remain monotonic between resets. The current-
// connections gauge is live state, not a counter, and is not reset.
func (s *Stats) Reset() {
	s.mu.Lock()
	blocks := make([]*VerbStats, 0, len(s.verbs))
	for _, v := range s.verbs {
		blocks = append(blocks, v)
	}
	s.mu.Unlock()
	for _, v := range blocks {
		v.reset()
	}
	s.connsTotal.Store(0)
	s.startNano.Store(time.Now().UnixNano())
}

// sortedVerbs returns (verb, stats) pairs sorted by verb name.
func (s *Stats) sortedVerbs() []struct {
	name string
	v    *VerbStats
} {
	s.mu.Lock()
	out := make([]struct {
		name string
		v    *VerbStats
	}, 0, len(s.verbs))
	for name, v := range s.verbs {
		out = append(out, struct {
			name string
			v    *VerbStats
		}{name, v})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Text renders the STATS reply body: a summary row of k=v tokens, then
// one row per verb that has seen traffic, the rows separated by
// newlines. On the wire writeRaw folds the newlines into "; " so the
// whole reply is one line (the protocol's one-reply-one-line rule);
// split on "; " to get the rows back. store may be nil (no keyspace
// gauges then).
func (s *Stats) Text(store *Store) string {
	cur, total := s.Conns()
	var b strings.Builder
	fmt.Fprintf(&b, "uptime_ms=%d conns=%d conns_total=%d",
		s.Uptime().Milliseconds(), cur, total)
	if store != nil {
		expired, evicted, resident := store.LifecycleStats()
		fmt.Fprintf(&b, " keys=%d shards_used=%d expired_keys=%d evicted_keys=%d resident_bytes=%d",
			store.Len(), store.ShardsUsed(), expired, evicted, resident)
	}
	// What the process's connections — accepted and dialed — pin beside
	// resident_bytes: pooled I/O buffers checked out right now.
	held := bufPool.held.Load()
	fmt.Fprintf(&b, " conn_buffers_held=%d conn_buffer_bytes=%d", held, held*connBufSize)
	for _, e := range s.sortedVerbs() {
		calls := e.v.Calls()
		if calls == 0 {
			continue
		}
		in, out := e.v.Bytes()
		h := e.v.Hist()
		fmt.Fprintf(&b, "\nverb=%s calls=%d errs=%d in=%d out=%d p50us=%d p99us=%d maxus=%d",
			e.name, calls, e.v.Errs(), in, out,
			h.Quantile(0.50).Microseconds(), h.Quantile(0.99).Microseconds(),
			h.Max().Microseconds())
	}
	return b.String()
}

// WriteMetrics renders the statistics in Prometheus text exposition
// format (the elld -metrics-addr /metrics payload). Latency histograms
// come out as native Prometheus histograms (cumulative le buckets in
// seconds, plus _sum and _count). store may be nil.
func (s *Stats) WriteMetrics(w io.Writer, store *Store) {
	cur, total := s.Conns()
	fmt.Fprintf(w, "# TYPE ell_uptime_seconds gauge\nell_uptime_seconds %g\n", s.Uptime().Seconds())
	fmt.Fprintf(w, "# TYPE ell_connections gauge\nell_connections %d\n", cur)
	fmt.Fprintf(w, "# TYPE ell_connections_accepted_total counter\nell_connections_accepted_total %d\n", total)
	if store != nil {
		expired, evicted, resident := store.LifecycleStats()
		fmt.Fprintf(w, "# TYPE ell_keys gauge\nell_keys %d\n", store.Len())
		fmt.Fprintf(w, "# TYPE ell_shards_used gauge\nell_shards_used %d\n", store.ShardsUsed())
		fmt.Fprintf(w, "# TYPE ell_expired_keys_total counter\nell_expired_keys_total %d\n", expired)
		fmt.Fprintf(w, "# TYPE ell_evicted_keys_total counter\nell_evicted_keys_total %d\n", evicted)
		fmt.Fprintf(w, "# TYPE ell_resident_bytes gauge\nell_resident_bytes %d\n", resident)
	}
	held := bufPool.held.Load()
	fmt.Fprintf(w, "# TYPE ell_conn_buffers_held gauge\nell_conn_buffers_held %d\n", held)
	fmt.Fprintf(w, "# TYPE ell_conn_buffer_bytes gauge\nell_conn_buffer_bytes %d\n", held*connBufSize)
	fmt.Fprint(w, "# TYPE ell_verb_calls_total counter\n")
	fmt.Fprint(w, "# TYPE ell_verb_errors_total counter\n")
	fmt.Fprint(w, "# TYPE ell_verb_bytes_in_total counter\n")
	fmt.Fprint(w, "# TYPE ell_verb_bytes_out_total counter\n")
	fmt.Fprint(w, "# TYPE ell_verb_latency_seconds histogram\n")
	for _, e := range s.sortedVerbs() {
		if e.v.Calls() == 0 {
			continue
		}
		in, out := e.v.Bytes()
		fmt.Fprintf(w, "ell_verb_calls_total{verb=%q} %d\n", e.name, e.v.Calls())
		fmt.Fprintf(w, "ell_verb_errors_total{verb=%q} %d\n", e.name, e.v.Errs())
		fmt.Fprintf(w, "ell_verb_bytes_in_total{verb=%q} %d\n", e.name, in)
		fmt.Fprintf(w, "ell_verb_bytes_out_total{verb=%q} %d\n", e.name, out)
		h := e.v.Hist()
		var cum uint64
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 && !(i == histBuckets-1) {
				cum += n
				continue
			}
			cum += n
			le := strconv.FormatFloat(float64(bucketUpperUS(i))/1e6, 'g', -1, 64)
			fmt.Fprintf(w, "ell_verb_latency_seconds_bucket{verb=%q,le=%q} %d\n", e.name, le, cum)
		}
		fmt.Fprintf(w, "ell_verb_latency_seconds_bucket{verb=%q,le=\"+Inf\"} %d\n", e.name, cum)
		fmt.Fprintf(w, "ell_verb_latency_seconds_sum{verb=%q} %g\n", e.name, h.Sum().Seconds())
		fmt.Fprintf(w, "ell_verb_latency_seconds_count{verb=%q} %d\n", e.name, cum)
	}
}
