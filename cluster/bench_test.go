package cluster

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"exaloglog/server"
)

// startBenchCluster brings up a 3-node, replica-2 cluster and a client
// connected to the first node; nodes[0] is the seed.
func startBenchCluster(b *testing.B) ([]*Node, *server.Client) {
	b.Helper()
	nodes := startTCPCluster(b, 3, 2)
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

// BenchmarkClusterClientCount measures a ClusterClient PFCOUNT of a
// sparse key in a 3-node, replica-1 cluster: one hop to the key's only
// owner, which counts its own copy. Client and nodes share the process, so
// allocs/op counts both sides of the hop.
func BenchmarkClusterClientCount(b *testing.B) {
	nodes := startTCPCluster(b, 3, 1)
	cc, err := DialCluster(nodes[0].Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cc.Close)
	if _, err := cc.Add("sparse", "a", "b", "c"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := cc.Count("sparse"); err != nil || n != 3 {
			b.Fatalf("Count = %d, %v; want 3", n, err)
		}
	}
}

// BenchmarkClusterConcurrentPFAdd measures concurrent Node.Add calls
// through one coordinator of a 3-node cluster, one writer a GOMAXPROCS:
// each add forwards one CLUSTER MLADD to each remote owner on its own
// goroutine, so the writers share the pooled peer connections.
func BenchmarkClusterConcurrentPFAdd(b *testing.B) {
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
// sends one MLADD line to the other: "existing" adds to one of 64 keys
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
					nodes := startTCPCluster(b, 2, 2)
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

// BenchmarkClusterPFMerge measures wire-level PFMERGE of 8 sources through
// a node that owns neither replica of dest: the sources and dest are
// gathered with DUMP, merged at the coordinator, and the union goes to
// both owners of dest.
func BenchmarkClusterPFMerge(b *testing.B) {
	nodes, c := startBenchCluster(b)
	m := nodes[0].Map()
	dest := ""
	for i := 0; dest == ""; i++ {
		if k := fmt.Sprintf("dest-%d", i); !slices.Contains(ownerIDs(m, k), nodes[0].ID()) {
			dest = k
		}
	}
	sources := make([]string, 8)
	for i := range sources {
		sources[i] = fmt.Sprintf("src-%d", i)
		for j := 0; j < 1000; j++ {
			if _, err := nodes[0].Add(sources[i], fmt.Sprintf("el-%d-%d", i, j)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(append([]string{"PFMERGE", dest}, sources...)...); err != nil {
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
		if _, err := wcountAt(c, "wkey", 30*time.Second, base+29_000); err != nil {
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

// BenchmarkMembershipPass measures the local work of one pass of n000,
// which holds 1 000 keys it owns, at replica 2 and 3, 64 and 512 members
// (maps and a store, no sockets): the pass's peers, then for each peer the
// DSUM side of its round, ShardDigests filtered to the keys the two
// co-own. A membership pass and the timer's pass both run a round with
// every other member, so a pass costs members × keys filter tests.
// peers/op is the number of rounds.
func BenchmarkMembershipPass(b *testing.B) {
	for _, n := range []int{3, 64, 512} {
		m := memberMap(n, 2)
		store, err := server.NewStore(testConfig())
		if err != nil {
			b.Fatal(err)
		}
		mine := m.ownedBy("n000")
		for k, held := 0, 0; held < 1000; k++ {
			if key := fmt.Sprintf("key-%d", k); mine(key) {
				if _, err := store.Add(key, "x"); err != nil {
					b.Fatal(err)
				}
				held++
			}
		}
		for _, kind := range []string{"membership", "timer"} {
			membership := kind == "membership"
			b.Run(fmt.Sprintf("%s/members=%d", kind, n), func(b *testing.B) {
				b.ReportAllocs()
				var peers []Member
				for i := 0; i < b.N; i++ {
					peers = m.passPeers("n000", membership)
					for _, p := range peers {
						store.ShardDigests(m.ownedBy("n000", p.ID))
					}
				}
				b.ReportMetric(float64(len(peers)), "peers/op")
			})
		}
	}
}

// BenchmarkMapOwnedBy measures a digest round's per-key filter, whether a
// key's owners hold both n000 and n001, at replica 2 and 3, 5, 64 and 512
// members; the filter is built once, outside the timer. A key's test
// ranks members only until Replicas of them beat the lower-ranked of the
// two, so it stops early on a key neither owns.
func BenchmarkMapOwnedBy(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	for _, n := range []int{3, 5, 64, 512} {
		owned := memberMap(n, 2).ownedBy("n000", "n001")
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				if owned(keys[i%len(keys)]) {
					hits++
				}
			}
			runtime.KeepAlive(hits)
		})
	}
}

// BenchmarkMapOwners isolates the routing cost: key → its 2 owners by
// rendezvous placement, at 3, 5, 64 and 512 members. A lookup scores every
// member, so it costs O(members).
func BenchmarkMapOwners(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	for _, n := range []int{3, 5, 64, 512} {
		m := memberMap(n, 2)
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if owners := m.Owners(keys[i%len(keys)]); len(owners) != 2 {
					b.Fatal("bad owners")
				}
			}
		})
	}
}

// BenchmarkNodeDispatch measures the public write and read verbs through a
// node's front end — line in, reply out, no client socket. On a 1-node
// cluster the node is every key's only owner; on a 2-node, replica-2 one
// it writes its own copy and forwards the other (a 1-key PFCOUNT gathers
// both). PFAdd re-adds 2 or 32 known elements, WAdd adds them to the newest
// slice, PFCount counts a 1000-element key. One line arrives per read, as
// from a client at depth 1. TestNodeDispatchAllocs checks that a write's
// allocations do not grow with its elements.
func BenchmarkNodeDispatch(b *testing.B) {
	for _, tc := range nodeDispatchCases() {
		b.Run(tc.name, func(b *testing.B) {
			node := startTCPCluster(b, tc.nodes, tc.nodes)[0]
			tc.setup(b, node)
			line := []byte(tc.line)
			node.Server().ServeStream(&streamOf{line: line, n: 1}, io.Discard)
			b.ReportAllocs()
			b.ResetTimer()
			node.Server().ServeStream(&streamOf{line: line, n: b.N}, io.Discard)
		})
	}
}

// nodeDispatchCase is one of BenchmarkNodeDispatch's and
// TestNodeDispatchAllocs's commands, run on a cluster of nodes nodes at a
// replica factor of nodes, after setup.
type nodeDispatchCase struct {
	name  string
	nodes int
	line  string
	setup func(testing.TB, *Node)
}

func nodeDispatchCases() []nodeDispatchCase {
	var cases []nodeDispatchCase
	none := func(testing.TB, *Node) {}
	for _, nodes := range []int{1, 2} {
		for _, k := range []int{2, 32} {
			els := make([]string, k)
			for i := range els {
				els[i] = fmt.Sprintf("el-%d", i)
			}
			line := strings.Join(els, " ") + "\n"
			cases = append(cases,
				nodeDispatchCase{fmt.Sprintf("%dnode/PFAdd/%d", nodes, k), nodes, "PFADD key " + line, none},
				nodeDispatchCase{fmt.Sprintf("%dnode/WAdd/%d", nodes, k), nodes, "WADD wkey 1750000000000 " + line, none})
		}
		cases = append(cases, nodeDispatchCase{fmt.Sprintf("%dnode/PFCount", nodes), nodes, "PFCOUNT key\n", func(t testing.TB, n *Node) {
			for i := 0; i < 1000; i++ {
				if _, err := n.Add("key", fmt.Sprintf("el-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
		}})
	}
	return cases
}
