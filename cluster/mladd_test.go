package cluster

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"exaloglog/server"
)

// streamOf hands a served stream the same command line n times, one line
// per Read (as much of it as fits): a depth-1 peer connection.
type streamOf struct {
	line   []byte
	n, off int
}

func (r *streamOf) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := copy(p, r.line[r.off:])
	if r.off += k; r.off == len(r.line) {
		r.n, r.off = r.n-1, 0
	}
	return k, nil
}

// mlAddLine is one forwarded batch: groups plain groups of the given size
// and one windowed group, every element already recorded after one pass.
func mlAddLine(groups, elements int) []byte {
	line := []byte("CLUSTER MLADD " + strconv.Itoa(groups+1))
	for g := 0; g < groups; g++ {
		line = append(line, fmt.Sprintf(" p bench-%d %d", g, elements)...)
		for e := 0; e < elements; e++ {
			line = append(line, fmt.Sprintf(" el-%d-%d", g, e)...)
		}
	}
	return append(line, " w bench-w 1750000000000 2 a b\n"...)
}

// BenchmarkDispatchMLAdd isolates the receiving owner's side of a forwarded
// add — line in, tokens hashed from the line's bytes, reply bytes out, no
// network: 4 plain groups of 8 elements and a windowed one.
func BenchmarkDispatchMLAdd(b *testing.B) {
	node, err := NewNode("n1", testConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	line := mlAddLine(4, 8)
	node.Server().ServeStream(&streamOf{line: line, n: 1}, io.Discard)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	node.Server().ServeStream(&streamOf{line: line, n: b.N}, io.Discard)
}

// TestMLAddAllocsDoNotGrowWithElements is the benchmark's guard: what a
// forwarded batch allocates on the owner is the argument slots of a line
// that outgrew the idle array — one allocation, however many elements the
// groups carry. No string is made of a key or an element. (Groups stay
// within what Store.AddBytes hashes on its stack.)
func TestMLAddAllocsDoNotGrowWithElements(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	node, err := NewNode("n1", testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	perCommand := func(groups, elements int) float64 {
		line := mlAddLine(groups, elements)
		node.Server().ServeStream(&streamOf{line: line, n: 2}, io.Discard) // record every token, fill the pool
		const n = 50
		return testing.AllocsPerRun(10, func() {
			node.Server().ServeStream(&streamOf{line: line, n: n}, io.Discard)
		}) / n
	}
	few, many := perCommand(28, 1), perCommand(28, 16)
	t.Logf("allocations per MLADD of 28 groups: %.2f with 30 elements, %.2f with 450", few, many)
	if many > few+0.1 || many > 1.1 {
		t.Errorf("an MLADD of 450 elements allocates %.2f times, one of 30 elements %.2f: want one allocation each", many, few)
	}
}

// FuzzMLAddFraming: whatever follows CLUSTER MLADD on the line, the byte
// parser answers with exactly one reply line and leaves the connection in
// step. Seeded with TestMLAddWire's malformed table and the wrong-type
// batch of TestMLAddWrongTypeGroupDoesNotPoisonBatch.
func FuzzMLAddFraming(f *testing.F) {
	for _, seed := range []string{
		"", "x", "0", "-1", "+1 p k 1 a", "9000000000000000000",
		"2 p k 1 a", "1 q k 1 a", "1 p k", "1 p k 2 a", "1 p k q a", "1 p k 0 a",
		"1 w k nope 1 a", "1 w k 1700000000000 2 a", "1 w k 1700000000000", "1 p k 1 a extra extra2",
		"1 p k 9000000000000000000 a", "1 w", "1 p",
		"3 p wkey 1 a p pkey 1 b p wkey 1 c",
		"3 p pk 2 a b w wkey 1700000000000 2 x y p pk 1 c",
		"1 p k 1 \x00\xff", "1\tp\tk\t1\ta",
	} {
		f.Add(seed)
	}
	node, err := NewNode("n1", testConfig(), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { node.Close() })
	if _, err := node.Store().WindowAddBytes([]byte("wkey"), 1700000000000, [][]byte{[]byte("x")}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, rest string) {
		rest = strings.NewReplacer("\n", " ", "\r", " ").Replace(rest) // one line
		var out bytes.Buffer
		node.Server().ServeStream(strings.NewReader("cluster mladd "+rest+"\nPING\n"), &out)
		lines := strings.Split(out.String(), "\n")
		if len(lines) != 3 || lines[2] != "" || lines[1] != "+PONG" {
			t.Fatalf("MLADD %q: replies %q, want one line and +PONG", rest, out.String())
		}
		if r := lines[0]; r == "" || (r[0] != '+' && !strings.HasPrefix(r, "-ERR ")) {
			t.Fatalf("MLADD %q: unframed reply %q", rest, r)
		}
	})
}

// liveHeap is the heap still reachable once the buffer pool has drained: a
// served connection gives its reply buffer back just after the write that
// lets its client go on, and a pooled buffer outlives two collections.
func liveHeap() uint64 {
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// buffersHeld reads the conn_buffers_held gauge through c.
func buffersHeld(t *testing.T, c *server.Client) int {
	t.Helper()
	reply, err := c.Do("CLUSTER", "STATS")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(reply, " conn_buffers_held=")
	if !ok || !strings.Contains(reply, " conn_buffer_bytes=") {
		t.Fatalf("CLUSTER STATS %q lacks the connection-buffer gauges", reply)
	}
	n, err := strconv.Atoi(strings.Fields(after)[0])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOversizedCommandThenIdle: a 1 MB forwarded batch takes a pooled
// buffer, a spill-over line and 80 000 argument slots; once the connection
// is idle again all of it is gone, on both ends.
func TestOversizedCommandThenIdle(t *testing.T) {
	nodes := startCluster(t, 1, 1)
	c := dialNode(t, nodes[0])
	if reply, err := c.Do("CLUSTER", "MLADD", "1", "p", "big", "1", "the-one-element"); err != nil || reply != "1" {
		t.Fatalf("MLADD: %q, %v", reply, err)
	}
	held := buffersHeld(t, c)
	base := liveHeap()

	const copies = 80000 // of the element the key already holds: the keyspace does not grow
	parts := append(make([]string, 0, 6+copies), "CLUSTER", "MLADD", "1", "p", "big", strconv.Itoa(copies))
	for i := 0; i < copies; i++ {
		parts = append(parts, "the-one-element")
	}
	if reply, err := c.Do(parts...); err != nil || reply != "0" {
		t.Fatalf("1 MB MLADD: %q, %v", reply, err)
	}
	parts = nil

	if got := buffersHeld(t, c); got != held {
		t.Errorf("conn_buffers_held %d after the oversized command, %d before", got, held)
	}
	if raceEnabled {
		return // heap sizes are not meaningful under the race detector
	}
	if grown := int64(liveHeap()) - int64(base); grown > 16<<10 {
		t.Errorf("the idle connection holds %d bytes more than before its 1 MB command", grown)
	}
}

// TestResidentBytesTracksLiveHeapServed is server's
// TestResidentBytesTracksLiveHeap on a served keyspace: two nodes, every
// key on both, their peer connections open and idle. What the two stores'
// resident_bytes gauges add up to is within 7 % of the live heap the
// whole cluster holds — nodes, stores, sockets and all (of every 20 keys
// 14 hold 1–32 elements, 5 hold 33–1000 and 1 holds 1001–10000). The
// gauge reads some 4 % under: two idle nodes hold about 69 KB that is no
// key's, 17 bytes per key and replica at this size.
func TestResidentBytesTracksLiveHeapServed(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const keys = 2000
	before := liveHeap()
	nodes := startCluster(t, 2, 2)
	for i := 0; i < keys; i++ {
		lo, hi := 1, 32
		switch m := i % 20; {
		case m == 0:
			lo, hi = 1001, 10000
		case m <= 5:
			lo, hi = 33, 1000
		}
		key := fmt.Sprintf("key-%05d", i)
		els := make([]string, lo+i*7919%(hi-lo+1))
		for j := range els {
			els[j] = key + strconv.Itoa(j)
		}
		if _, err := nodes[i%2].Add(key, els...); err != nil {
			t.Fatal(err)
		}
	}
	heap := float64(liveHeap() - before)
	var resident int64
	for _, n := range nodes {
		_, _, b := n.Store().LifecycleStats()
		resident += b
	}
	const replicas = 2 * keys
	t.Logf("resident_bytes %.0f B, live heap %.0f B per key and replica", float64(resident)/replicas, heap/replicas)
	if ratio := float64(resident) / heap; ratio < 0.93 || ratio > 1.07 {
		t.Errorf("resident_bytes %d vs %.0f live heap bytes: ratio %.3f outside 0.93–1.07", resident, heap, ratio)
	}
	runtime.KeepAlive(nodes)
}
