package cluster

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"exaloglog/server"
)

// startBenchCluster brings up a 3-node, replica-2 cluster and a client
// connected to the first node; nodes[0] is the seed.
func startBenchCluster(b *testing.B) ([]*Node, *server.Client) {
	b.Helper()
	nodes := make([]*Node, 3)
	for i := range nodes {
		node, err := NewNode(fmt.Sprintf("n%d", i+1), testConfig(), 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { node.Close() })
		if i > 0 {
			if err := node.Join(nodes[0].Addr()); err != nil {
				b.Fatal(err)
			}
		}
		nodes[i] = node
	}
	c, err := server.Dial(nodes[0].Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return nodes, c
}

// BenchmarkClusterRoutedPFAdd measures wire-level PFADD through one node
// of a 3-node cluster: each op is routed to the key's two owners and
// replicated before the reply.
func BenchmarkClusterRoutedPFAdd(b *testing.B) {
	_, c := startBenchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("key-%d", i%64)
		if _, err := c.PFAdd(key, fmt.Sprintf("el-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkClusterBatchedPFAdd measures concurrent Node.Add calls
// through one coordinator of a 3-node cluster: the per-peer batcher
// coalesces the forwards to each owner into pipelined CLUSTER MLADD
// batches, so k concurrent adds to the same owner share one round trip
// instead of paying k.
func BenchmarkClusterBatchedPFAdd(b *testing.B) {
	nodes, _ := startBenchCluster(b)
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := gid.Add(1)
		i := 0
		for pb.Next() {
			key := fmt.Sprintf("g%d-key-%d", g, i%16)
			if _, err := nodes[0].Add(key, fmt.Sprintf("el-%d", i)); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkNodeAdd measures Node.Add of k 16-character elements on a
// 2-node, replica-2 cluster, so every call writes this node's copy and
// sends one MLADD group to the other: "existing" adds to one of 64 keys
// that hold 1000 elements, "fresh" creates a key per call. ns/element is
// the time per element added.
func BenchmarkNodeAdd(b *testing.B) {
	pool := make([]string, 1<<16)
	for i := range pool {
		pool[i] = fmt.Sprintf("element-%08d", i)
	}
	for _, k := range []int{1, 40, 1000, 5000} {
		b.Run(strconv.Itoa(k), func(b *testing.B) {
			for _, mode := range []string{"existing", "fresh"} {
				b.Run(mode, func(b *testing.B) {
					nodes := startClusterB(b, 2, 2)
					for j := 0; j < 64; j++ {
						if _, err := nodes[0].Add(fmt.Sprintf("key-%d", j), pool[j*1000:(j+1)*1000]...); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						key := fmt.Sprintf("key-%d", i%64)
						if mode == "fresh" {
							key = fmt.Sprintf("fresh-%d", i)
						}
						off := i * k % (len(pool) - k)
						if _, err := nodes[0].Add(key, pool[off:off+k]...); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/element")
				})
			}
		})
	}
}

// startClusterB is startCluster for a benchmark.
func startClusterB(b *testing.B, n, replicas int) []*Node {
	b.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := NewNode(fmt.Sprintf("n%d", i+1), testConfig(), replicas)
		if err != nil {
			b.Fatal(err)
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { node.Close() })
		if i > 0 {
			if err := node.Join(nodes[0].Addr()); err != nil {
				b.Fatal(err)
			}
		}
		nodes[i] = node
	}
	return nodes
}

// BenchmarkClusterFanoutPFCount measures wire-level PFCOUNT of an
// 8-key union through one node: every key's owner sketches are fetched
// with DUMP and merged at the coordinator.
func BenchmarkClusterFanoutPFCount(b *testing.B) {
	nodes, c := startBenchCluster(b)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		for j := 0; j < 1000; j++ {
			if _, err := nodes[0].Add(keys[i], fmt.Sprintf("el-%d-%d", i, j)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PFCount(keys...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkClusterRoutedWAdd measures wire-level WADD through one node
// of a 3-node cluster: each op carries an explicit timestamp and is
// forwarded to the key's two owners before the reply.
func BenchmarkClusterRoutedWAdd(b *testing.B) {
	_, c := startBenchCluster(b)
	const base = int64(1_750_000_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("wkey-%d", i%64)
		if _, err := c.WAdd(key, base+int64(i)*13, fmt.Sprintf("el-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkClusterWindowCount measures the windowed scatter-gather:
// WCOUNT through one node fetches every owner's slot-wise ring DUMP
// and merges the rings slice by slice at the coordinator.
func BenchmarkClusterWindowCount(b *testing.B) {
	nodes, c := startBenchCluster(b)
	const base = int64(1_750_000_000_000)
	for s := 0; s < 30; s++ {
		for e := 0; e < 100; e++ {
			if _, err := nodes[0].WindowAdd("wkey", base+int64(s)*1000, fmt.Sprintf("el-%d-%d", s, e)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.WCountAt("wkey", 30*time.Second, base+29_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkRebalance measures one full membership round trip — a
// fourth node joining and then leaving a 3-node, replica-2 cluster
// holding 512 keys. The digest rounds a membership change runs move only
// keys whose owner set changed, which keeps this flat-ish as stores grow.
func BenchmarkRebalance(b *testing.B) {
	nodes, _ := startBenchCluster(b)
	for i := 0; i < 512; i++ {
		if _, err := nodes[0].Add(fmt.Sprintf("key-%d", i), "x"); err != nil {
			b.Fatal(err)
		}
	}
	n4, err := NewNode("n4", testConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := n4.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n4.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n4.Join(nodes[0].Addr()); err != nil {
			b.Fatal(err)
		}
		if err := n4.Leave(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	all := append(nodes, n4)
	b.ReportMetric(float64(sumPushes(all...))/float64(b.N), "pushes/op")
	// The pushes travel framed: frames/op stays O(keys/batch), far under
	// the one-message-per-push cost of the per-key path; wireB/op is what
	// crossed the network.
	stats := sumTransferStats(all)
	b.ReportMetric(float64(stats.FramesSent)/float64(b.N), "frames/op")
	b.ReportMetric(float64(stats.BytesWire)/float64(b.N), "wireB/op")
}

func sumPushes(nodes ...*Node) uint64 {
	var total uint64
	for _, n := range nodes {
		total += n.RebalancePushes()
	}
	return total
}

// BenchmarkRingOwners isolates the routing cost: key → N owners on the
// consistent-hash ring.
func BenchmarkRingOwners(b *testing.B) {
	m := NewMap(2,
		Member{"n1", "a:1"}, Member{"n2", "a:2"}, Member{"n3", "a:3"},
		Member{"n4", "a:4"}, Member{"n5", "a:5"})
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if owners := m.Owners(keys[i%len(keys)]); len(owners) != 2 {
			b.Fatal("bad owners")
		}
	}
}
