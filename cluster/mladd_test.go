package cluster

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"exaloglog/internal/core"
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

// batchB64 is an MLADD line's batch: the base64 of the token batch a
// coordinator of the test configuration hashes the elements into.
func batchB64(t testing.TB, elements ...string) string {
	t.Helper()
	return batchB64Of(t, testConfig(), elements...)
}

func batchB64Of(t testing.TB, cfg core.Config, elements ...string) string {
	t.Helper()
	store, err := server.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := store.Batch(elements)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := batch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(blob)
}

// mlAddLines is groups forwarded plain adds of the given size and one
// windowed add, one MLADD line each, every element already recorded after
// one pass.
func mlAddLines(t testing.TB, groups, elements int) []byte {
	var lines []byte
	for g := 0; g < groups; g++ {
		els := make([]string, elements)
		for e := range els {
			els[e] = fmt.Sprintf("el-%d-%d", g, e)
		}
		lines = append(lines, fmt.Sprintf("CLUSTER MLADD p bench-%d %s\n", g, batchB64(t, els...))...)
	}
	return append(lines, "CLUSTER MLADD w bench-w 1750000000000 2 "+batchB64(t, "a", "b")+"\n"...)
}

// BenchmarkDispatchMLAdd isolates the receiving owner's side of forwarded
// adds — lines in, batches decoded and absorbed, reply bytes out, no
// network: 4 plain adds of 8 elements and a windowed one, so an op is five
// MLADD lines.
func BenchmarkDispatchMLAdd(b *testing.B) {
	node, err := NewNode("n1", testConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	lines := mlAddLines(b, 4, 8)
	node.Server().ServeStream(&streamOf{line: lines, n: 1}, io.Discard)
	b.SetBytes(int64(len(lines)))
	b.ReportAllocs()
	b.ResetTimer()
	node.Server().ServeStream(&streamOf{line: lines, n: b.N}, io.Discard)
}

// TestMLAddAllocsDoNotGrowWithElements is the benchmark's guard: a
// forwarded add allocates nothing on the owner, however many elements its
// batch was made of. No string is made of a key, and the batch is decoded
// and absorbed on the stack.
func TestMLAddAllocsDoNotGrowWithElements(t *testing.T) {
	// Serial: testing.AllocsPerRun counts the allocations of every goroutine.
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	node, err := NewNode("n1", testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	const groups = 28
	perLine := func(elements int) float64 {
		lines := mlAddLines(t, groups, elements)
		node.Server().ServeStream(&streamOf{line: lines, n: 2}, io.Discard) // record every token, fill the pool
		const n = 50
		return testing.AllocsPerRun(10, func() {
			node.Server().ServeStream(&streamOf{line: lines, n: n}, io.Discard)
		}) / (n * (groups + 1))
	}
	few, many := perLine(1), perLine(16)
	t.Logf("allocations per MLADD line: %.3f of 1 element, %.3f of 16", few, many)
	if many > few+0.01 || many > 0.05 {
		t.Errorf("an MLADD of 16 elements allocates %.3f times, one of 1 element %.3f: want none", many, few)
	}
}

// FuzzMLAddFraming: whatever follows CLUSTER MLADD on the line, the byte
// parser answers with exactly one reply line and leaves the connection in
// step. Seeded with TestMLAddWire's malformed table, the refused blobs of
// TestMLAddRefusedGroups, the retired counted forms and the retired element
// framing.
func FuzzMLAddFraming(f *testing.F) {
	one, two := batchB64(f, "a"), batchB64(f, "x", "y")
	for _, seed := range []string{
		"", "x", "p", "w", "p k", "p k " + one, "w k 1700000000000 2 " + two,
		"q k " + one, "p wkey " + one, "w k nope 1 " + one, "w k 1700000000000 0 " + one,
		"w k 1700000000000 " + one, "w k 1700000000000 9000000000000000000 " + one,
		"p k " + one + " extra", "p k !!!!", "p k " + one[:len(one)-2],
		"p k " + base64.StdEncoding.EncodeToString([]byte("ELT3\x02\x14\x0a\x05")),
		"p k RUxUMwIUCgA=", // a batch of no tokens
		"p k " + batchB64Of(f, core.RecommendedML(12), "a"),
		// The retired counted forms.
		"0", "-1", "9000000000000000000", "1 p k " + one, "3 p k " + one,
		"3 p wkey " + one + " p pkey " + one + " p wkey " + one,
		// The retired element framing.
		"p k 1 a", "w k 1700000000000 1 a", "1 p k 1 a",
		"2 p pk 2 a b w wk 1700000000000 2 x y", "p k 1 \x00\xff", "p\tk\t" + one,
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
		if r := lines[0]; r == "" || (r[0] != ':' && !strings.HasPrefix(r, "-ERR ")) {
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

// TestOversizedCommandThenIdle: a 700 KB PFADD takes a pooled buffer, a
// spill-over line and 44 000 argument slots; once the connection is idle
// again all of it is gone, on both ends.
func TestOversizedCommandThenIdle(t *testing.T) {
	// Serial: it reads the process-wide conn_buffers_held gauge and the live heap.
	h := newHarness(t, harnessOpts{nodes: 1, replicas: 1})
	c := h.dial(h.addr("n1"))
	const one = "the-one-element"
	if reply, err := c.Do("PFADD", "big", one); err != nil || reply != "1" {
		t.Fatalf("PFADD: %q, %v", reply, err)
	}
	held := buffersHeld(t, c)
	base := liveHeap()

	const elements = 44000 // the element the key already holds: the keyspace does not grow
	parts := append(make([]string, 0, 2+elements), "PFADD", "big")
	for i := 0; i < elements; i++ {
		parts = append(parts, one)
	}
	if reply, err := c.Do(parts...); err != nil || reply != "0" {
		t.Fatalf("700 KB PFADD: %q, %v", reply, err)
	}
	parts = nil

	if got := buffersHeld(t, c); got != held {
		t.Errorf("conn_buffers_held %d after the oversized command, %d before", got, held)
	}
	if raceEnabled {
		return // heap sizes are not meaningful under the race detector
	}
	if grown := int64(liveHeap()) - int64(base); grown > 16<<10 {
		t.Errorf("the idle connection holds %d bytes more than before its 700 KB command", grown)
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
	// Serial: it reads the live heap of the whole process.
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const keys = 2000
	before := liveHeap()
	nodes := newHarness(t, harnessOpts{nodes: 2, replicas: 2}).running()
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

// TestMLAddRefusedGroups: a forwarded add whose batch is refused — not
// base64, a blob the core decoder refuses (ELT3, EL 0x01 or the retired
// ELT2), a batch of no tokens, or one of another sketch configuration than
// the key holds — answers one -ERR line that parses as
// server.ErrWrongType, changes nothing, and the next command on the
// connection gets its own reply. The retired element framing and the
// retired counted forms are framing errors: one -ERR line, the connection
// in step.
func TestMLAddRefusedGroups(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 1, replicas: 1})
	store := h.node("n1").Store()
	c := h.dial(h.addr("n1"))
	for _, held := range [][]string{
		{"CLUSTER", "MLADD", "p", "held", batchB64(t, "a")},
		{"CLUSTER", "MLADD", "w", "ring", "1750000000000", "1", batchB64(t, "a")},
	} {
		if reply, err := c.Do(held...); err != nil || reply != "1" {
			t.Fatalf("%v: %q, %v", held, reply, err)
		}
	}
	dense, _ := core.MustNew(testConfig()).MarshalBinary()
	b64 := base64.StdEncoding.EncodeToString
	for i, bad := range []struct {
		name, add string // the add refers to the key it goes into as %s
	}{
		{"not base64", "p %s !!!!"},
		{"truncated base64", "p %s " + batchB64(t, "b")[:8]},
		{"an ELT3 blob without its tokens", "p %s " + b64([]byte("ELT3\x02\x14\x0a\x05"))},
		{"a truncated EL 0x01 blob", "p %s " + b64(dense[:len(dense)-1])},
		{"an ELT2 blob", "p %s RUxUMgIUDEMACA=="},
		{"a batch of no tokens", "p %s " + b64([]byte("ELT3\x02\x14\x0a\x00"))},
		{"another configuration", "p %s " + batchB64Of(t, core.RecommendedML(12), "b")},
		{"another configuration in a window", "w %s 1750000000000 1 " + batchB64Of(t, core.RecommendedML(12), "b")},
	} {
		target := "held"
		if strings.HasPrefix(bad.add, "w ") {
			target = "ring"
		}
		before, _ := store.Dump(target)
		_, err := c.Do(append([]string{"CLUSTER", "MLADD"}, strings.Fields(fmt.Sprintf(bad.add, target))...)...)
		if !errors.Is(err, server.ErrWrongType) {
			t.Errorf("%s: %v, want ErrWrongType", bad.name, err)
		}
		if after, _ := store.Dump(target); !bytes.Equal(after, before) {
			t.Errorf("%s: the refused add changed %q", bad.name, target)
		}
		next := fmt.Sprintf("after-%d", i)
		if reply, err := c.Do("CLUSTER", "MLADD", "p", next, batchB64(t, "y")); err != nil || reply != "1" {
			t.Errorf("%s: the add after it: %q, %v; want 1", bad.name, reply, err)
		}
	}
	for _, framing := range []string{
		"p k 1 a",
		"2 p k 2 a b w wk 1750000000000 1 x",
		"w k 1750000000000 " + batchB64(t, "a"),
		"1 p k " + batchB64(t, "a"),
		"2 p k " + batchB64(t, "a") + " p",
	} {
		_, err := c.Do(append([]string{"CLUSTER", "MLADD"}, strings.Fields(framing)...)...)
		if !server.IsReplyErr(err) || errors.Is(err, server.ErrWrongType) {
			t.Errorf("MLADD %s: %v, want a framing error reply", framing, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("connection out of step after MLADD %s: %v", framing, err)
		}
	}
}

// TestMLAddBytesSent: a node counts the bytes of the MLADD lines it sends —
// StatsCounters, its CLUSTER STATS row and /metrics — and a 1000-element
// Add sends its remote owner at most an eighth of the elements' own bytes:
// their tokens, not their text.
func TestMLAddBytesSent(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 2, replicas: 2}).running()
	elements, text := make([]string, 1000), 0
	for i := range elements {
		elements[i] = fmt.Sprintf("element-%08d", i)
		text += len(elements[i])
	}
	before := nodes[0].StatsCounters().MLAddBytes
	if _, err := nodes[0].Add("big", elements...); err != nil {
		t.Fatal(err)
	}
	total := nodes[0].StatsCounters().MLAddBytes
	sent := int(total - before)
	t.Logf("a 1000-element add of %d bytes of text sent %d MLADD bytes", text, sent)
	if sent == 0 || sent > text/8 {
		t.Errorf("the add sent %d MLADD bytes for %d bytes of elements, want at most %d", sent, text, text/8)
	}
	if row := nodes[0].statsBody(); !strings.Contains(row, fmt.Sprintf(" mladd_bytes=%d\n", total)) {
		t.Errorf("CLUSTER STATS row lacks mladd_bytes=%d: %q", total, strings.SplitN(row, "\n", 2)[0])
	}
	var metrics bytes.Buffer
	nodes[0].WriteMetrics(&metrics)
	if !strings.Contains(metrics.String(), fmt.Sprintf("\nell_cluster_mladd_bytes_total %d\n", total)) {
		t.Error("/metrics lacks ell_cluster_mladd_bytes_total")
	}
}
