package server

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"exaloglog/internal/core"
)

func newBenchStore(b testing.TB) *Store {
	b.Helper()
	store, err := NewStore(core.RecommendedML(12))
	if err != nil {
		b.Fatal(err)
	}
	return store
}

func startBenchServer(b *testing.B) *Server {
	b.Helper()
	srv := NewServer(newBenchStore(b))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

// benchElements pre-formats element strings so the benchmark loop does
// not measure fmt.Sprintf.
func benchElements(n int) []string {
	els := make([]string, n)
	for i := range els {
		els[i] = fmt.Sprintf("el-%d", i)
	}
	return els
}

// BenchmarkStoreAdd measures single-goroutine Store.Add on one key —
// the per-insert floor with no contention.
func BenchmarkStoreAdd(b *testing.B) {
	store := newBenchStore(b)
	els := benchElements(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Add("key", els[i%len(els)])
	}
}

// BenchmarkStoreAddSparse is BenchmarkStoreAdd on keys that stay below
// break-even: every key is built up to n elements and left, so an
// iteration is the average insert of such a key's life — token search,
// array shift and growth, the resident-bytes update, and 1/n of creating
// the key.
func BenchmarkStoreAddSparse(b *testing.B) {
	for _, n := range []int{16, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			store := newBenchStore(b)
			els := benchElements(4096)
			keys := make([]string, b.N/n+1)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store.Add(keys[i/n], els[i%len(els)])
			}
		})
	}
}

// BenchmarkStoreNewKey measures creating a key: one Store.Add of one
// element to a key not yet there — the entry with the sketch inside it,
// the first token array, and the shard map's growth spread over the keys.
func BenchmarkStoreNewKey(b *testing.B) {
	store := newBenchStore(b)
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Add(keys[i], "el")
	}
}

// BenchmarkStoreParallelAdd hammers Store.Add from parallel goroutines,
// each with its own working set of keys. Under the global-mutex store
// every add serializes; the sharded store lets disjoint keys proceed
// concurrently.
func BenchmarkStoreParallelAdd(b *testing.B) {
	store := newBenchStore(b)
	els := benchElements(4096)
	var gid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := gid.Add(1)
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("g%d-key-%d", g, i)
		}
		i := 0
		for pb.Next() {
			store.Add(keys[i%len(keys)], els[i%len(els)])
			i++
		}
	})
}

// BenchmarkStoreCount measures Count over an 8-key union of dense keys —
// the accumulator-reuse path (one register merge per key, no per-key
// sketch allocation when configurations match). 60 000 elements a key:
// break-even is near 44 000.
func BenchmarkStoreCount(b *testing.B) {
	store := newBenchStore(b)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		els := make([]string, 60000)
		for j := range els {
			els[j] = fmt.Sprintf("el-%d-%d", i, j)
		}
		store.Add(keys[i], els...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Count(keys...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCountSparse is BenchmarkStoreCount over 8 keys of n
// elements each, all sparse: the tokens are replayed into the pooled
// accumulator instead of merging register arrays.
func BenchmarkStoreCountSparse(b *testing.B) {
	for _, n := range []int{16, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			store := newBenchStore(b)
			keys := make([]string, 8)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d", i)
				for j := 0; j < n; j++ {
					store.Add(keys[i], fmt.Sprintf("el-%d-%d", i, j))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Count(keys...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerPFAdd is the request-per-round-trip wire baseline: one
// client, one PFADD, one reply, repeat.
func BenchmarkServerPFAdd(b *testing.B) {
	srv := startBenchServer(b)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	els := benchElements(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PFAdd("key", els[i%len(els)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkPipelinedPFAdd measures wire-level PFADD throughput with the
// Pipeline API: batches of commands go out in one write and the server
// coalesces the reply flushes, so each op's cost is amortized protocol
// work instead of a full network round trip.
func BenchmarkPipelinedPFAdd(b *testing.B) {
	srv := startBenchServer(b)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	els := benchElements(4096)
	const batch = 128
	p := c.Pipeline()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := batch
		if left := b.N - done; left < n {
			n = left
		}
		for i := 0; i < n; i++ {
			p.PFAdd("key", els[(done+i)%len(els)])
		}
		results, err := p.Exec()
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != n {
			b.Fatalf("got %d results, want %d", len(results), n)
		}
		done += n
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkDispatchPFAdd isolates the server's PFADD dispatch fast path
// — tokenized line in, reply bytes out, no network. The acceptance bar
// is 0 allocs/op: tokens stay []byte end to end and the reply is
// appended to a reusable scratch buffer.
func BenchmarkDispatchPFAdd(b *testing.B) {
	store := newBenchStore(b)
	srv := NewServer(store)
	cc := newConnCtx(srv, nil, io.Discard)
	lines := make([][]byte, 512)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf("PFADD key el-%d\n", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if quit := cc.exec(lines[i%len(lines)]); quit {
			b.Fatal("unexpected quit")
		}
	}
}

// BenchmarkDispatchPFAddInstrumented is BenchmarkDispatchPFAdd with the
// per-verb stats accounting explicitly verified: after the loop, the
// PFADD counter must equal b.N (every dispatch was measured) and the
// loop must still report 0 allocs/op — the acceptance bar for hooking
// metrics into the fast path.
func BenchmarkDispatchPFAddInstrumented(b *testing.B) {
	store := newBenchStore(b)
	srv := NewServer(store)
	cc := newConnCtx(srv, nil, io.Discard)
	lines := make([][]byte, 512)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf("PFADD key el-%d\n", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.exec(lines[i%len(lines)])
	}
	b.StopTimer()
	if calls := srv.Stats().Verb("PFADD").Calls(); calls != uint64(b.N) {
		b.Fatalf("stats recorded %d PFADD calls for %d dispatches", calls, b.N)
	}
}

// BenchmarkDispatchWAdd isolates the WADD dispatch fast path — the
// windowed workload's write hot path. Like PFADD it must stay at
// 0 allocs/op once the key exists: tokens stay []byte, the timestamp
// is parsed without strconv's string conversion, and the accepted
// count is appended to the reusable scratch buffer.
func BenchmarkDispatchWAdd(b *testing.B) {
	store := newBenchStore(b)
	srv := NewServer(store)
	cc := newConnCtx(srv, nil, io.Discard)
	lines := make([][]byte, 512)
	for i := range lines {
		// Timestamps advance so the ring rotates like live traffic.
		lines[i] = []byte(fmt.Sprintf("WADD key %d el-%d\n", 1_750_000_000_000+int64(i)*37, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if quit := cc.exec(lines[i%len(lines)]); quit {
			b.Fatal("unexpected quit")
		}
	}
}

// BenchmarkDispatchPFCount isolates the PFCOUNT dispatch path on one key
// of 10 000 elements, which at p = 12 is still sparse: each count is one
// estimate over the key's roughly 9 000 tokens, as the entry caches no
// estimate.
func BenchmarkDispatchPFCount(b *testing.B) {
	store := newBenchStore(b)
	for i := 0; i < 10000; i++ {
		store.Add("key", fmt.Sprintf("el-%d", i))
	}
	srv := NewServer(store)
	cc := newConnCtx(srv, nil, io.Discard)
	line := []byte("PFCOUNT key\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.exec(line)
	}
}

// BenchmarkDispatchPFCountUnion keeps the multi-key accumulator path
// honest: an 8-key union must be merge-bound, not allocation-bound.
func BenchmarkDispatchPFCountUnion(b *testing.B) {
	store := newBenchStore(b)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		for j := 0; j < 10000; j++ {
			store.Add(keys[i], fmt.Sprintf("el-%d-%d", i, j))
		}
	}
	srv := NewServer(store)
	cc := newConnCtx(srv, nil, io.Discard)
	line := []byte("PFCOUNT " + strings.Join(keys, " ") + "\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.exec(line)
	}
}

// BenchmarkServerParallelPFAdd measures wire-level PFADD throughput with
// one connection per worker, each writing its own keys — the end-to-end
// number the sharded store and the zero-allocation dispatch fast path
// exist to move.
func BenchmarkServerParallelPFAdd(b *testing.B) {
	srv := startBenchServer(b)
	els := benchElements(4096)
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := gid.Add(1)
		c, err := Dial(srv.Addr())
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("g%d-key-%d", g, i)
		}
		i := 0
		for pb.Next() {
			if _, err := c.PFAdd(keys[i%len(keys)], els[i%len(els)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// manyKeysCardinality is the benchmark module's many-keys size mix: of
// every 20 keys one holds 1 001–10 000 elements (dense), five 33–1 000,
// and the rest 1–32 (sparse).
func manyKeysCardinality(i int) int {
	lo, hi := 1, 32
	switch m := i % 20; {
	case m == 0:
		lo, hi = 1001, 10000
	case m <= 5:
		lo, hi = 33, 1000
	}
	return lo + i*7919%(hi-lo+1)
}

// newManyKeysStore returns a store of n plain keys in the many-keys mix.
func newManyKeysStore(b testing.TB, n int) *Store {
	store := newBenchStore(b)
	for i := range n {
		key := fmt.Sprintf("mk%05d", i)
		els := make([]string, manyKeysCardinality(i))
		for j := range els {
			els[j] = fmt.Sprintf("%s-%d", key, j)
		}
		store.Add(key, els...)
	}
	return store
}

// BenchmarkShardDigests is one anti-entropy sweep, ShardDigests, over
// 3 000 keys in the many-keys mix: every key serialized and hashed, since
// the entry caches no digest. The filtered sweep accepts about half the
// keys, as a digest exchange's co-owned filter would with two of three
// nodes holding each key.
func BenchmarkShardDigests(b *testing.B) {
	store := newManyKeysStore(b, 3000)
	for _, bc := range []struct {
		name   string
		filter func(string) bool
	}{
		{"all", nil},
		{"filtered", func(key string) bool { return ShardIndex(key+"#")&1 == 0 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				store.ShardDigests(bc.filter)
			}
		})
	}
}
