package cluster

// Tests for the transfer pipeline (transfer.go) and the one data mover
// around it: the stall fault that I/O deadlines exist to beat, the two
// chaos scenarios — a mid-stream connection drop and a receiver
// crash-restart-from-snapshot — which the next digest round must finish
// with at most one window of frames sent twice, the leaving node's drain
// holding one window, not the store, and the benchmark's join/leave
// sequence converging to the oracle.

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"exaloglog"
	"exaloglog/internal/core"
	"exaloglog/server"
)

// denseBlob is a dense serialized sketch holding the elements — what a
// key past break-even, or one restored from a plain sketch, holds.
func denseBlob(t testing.TB, elements ...string) []byte {
	t.Helper()
	sk := core.MustNew(testConfig())
	for _, el := range elements {
		sk.AddString(el)
	}
	blob, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// elc1Blob is a container of the generic codec the serving path used until
// PR 24 — "ELC1" around the 3592-byte dense blob of one element, as a node
// of that time framed it. Nothing decodes it any more: wherever a value
// blob is expected it must be refused like any other unknown magic.
func elc1Blob(t testing.TB) []byte {
	t.Helper()
	blob, err := base64.StdEncoding.DecodeString("RUxDMXOIHEVMAQIUCgAAAY8CgICEAg==")
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStalledPeerTripsDeadline: a peer that accepts connections but
// never replies (the black-hole failure mode that used to hang
// forwards and rebalance forever) must now fail fast as a TRANSPORT
// error, feed the failure detector, get auto-evicted — and the
// rebalance onto the healthy replicas must complete with every count
// intact.
func TestStalledPeerTripsDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("stall-fault harness skipped in -short")
	}
	h := newHarness(t, 3, 2)
	const peerTimeout = 250 * time.Millisecond
	for _, n := range h.running() {
		n.SetPeerTimeout(peerTimeout)
	}

	const keys = 40
	keyName := func(k int) string { return fmt.Sprintf("st-%d", k) }
	ref := make([]float64, keys)
	for k := 0; k < keys; k++ {
		for e := 0; e < 3; e++ {
			if _, err := h.node("n1").Add(keyName(k), fmt.Sprintf("el-%d-%d", k, e)); err != nil {
				t.Fatal(err)
			}
		}
		ref[k] = mustCount(t, h.node("n1"), keyName(k))
	}
	h.tick(2) // healthy baseline: heartbeats flowing

	stalledAddr := h.stall("n3")

	// The deadline turns the black hole into a prompt transport error —
	// NOT a reply error (the peer never answered), and never a hang.
	start := time.Now()
	_, err := h.node("n1").peers.do(stalledAddr, "PING")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("command against a stalled peer returned no error")
	}
	if server.IsReplyErr(err) {
		t.Fatalf("stalled peer yielded a reply error (%v) — it answered?", err)
	}
	if elapsed > 20*peerTimeout {
		t.Fatalf("stalled peer held the command for %v — the deadline did not trip", elapsed)
	}

	// Silence (every exchange now times out) raises suspicion and,
	// past the window, a quorum-backed auto-eviction.
	evs := h.tick(testSuspectAfter + 5)
	if evs["n3"] == "" {
		t.Fatal("stalled node was never auto-evicted")
	}
	raised := false
	for _, n := range h.running() {
		if n.StatsCounters().SuspectsRaised > 0 {
			raised = true
		}
	}
	if !raised {
		t.Error("no survivor ever raised suspicion against the stalled peer")
	}

	enc := h.converge(15 * time.Second)
	if strings.Contains(enc, "n3=") {
		t.Fatalf("converged map %s still lists the stalled node", enc)
	}
	// The rebalance away from n3 completed via the healthy replicas.
	for k := 0; k < keys; k++ {
		for _, id := range []string{"n1", "n2"} {
			if got := mustCount(t, h.node(id), keyName(k)); got != ref[k] {
				t.Errorf("%s: count %s = %v, want %v after stall eviction", id, keyName(k), got, ref[k])
			}
		}
	}
}

// countFrames installs an intercept that counts every XFER FRAME any node
// is about to send and hands the running count to fail, whose error (nil:
// none) aborts that frame's window. It returns a reader of the count.
func countFrames(h *harness, fail func(frame int) error) (sent func() int) {
	var mu sync.Mutex
	frames := 0
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) < 3 || parts[0] != "CLUSTER" || parts[1] != "XFER" || parts[2] != "FRAME" {
			return nil
		}
		mu.Lock()
		frames++
		f := frames
		mu.Unlock()
		return fail(f)
	})
	h.t.Cleanup(func() { h.setIntercept(nil) })
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return frames
	}
}

// convergedAfterRound runs one digest round on every node and fails the
// test unless it repaired nothing and sent no frame.
func convergedAfterRound(t *testing.T, h *harness) {
	t.Helper()
	before := sumTransferStats(h.running()).FramesSent
	for _, n := range h.running() {
		_, r0 := n.DigestSyncStats()
		if err := n.DigestSync(); err != nil {
			t.Fatalf("%s: digest round on a converged cluster: %v", n.ID(), err)
		}
		if _, r1 := n.DigestSyncStats(); r1 != r0 {
			t.Errorf("%s: a digest round repaired %d keys on a converged cluster", n.ID(), r1-r0)
		}
	}
	if after := sumTransferStats(h.running()).FramesSent; after != before {
		t.Errorf("a round on a converged cluster sent %d frames", after-before)
	}
}

// TestTransferResumesAfterMidStreamDrop: the stream that moves ≥2000 keys
// onto a joining node loses its connection mid-stream. The stream returns
// its error (the JOIN reports it), nothing is retried in place, and the
// next digest round — which finds the frames that landed in step — ships
// the rest: the cluster converges within two rounds, with at most one
// window of frames sent twice and every key on both owners.
func TestTransferResumesAfterMidStreamDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-key transfer chaos skipped in -short")
	}
	const (
		total  = 2200
		batch  = 64
		window = 2
		dropAt = 6
	)
	h := newHarnessCfg(t, 1, 2, &TransferConfig{BatchKeys: batch, Window: window})
	keyName := func(k int) string { return fmt.Sprintf("drop-%d", k) }
	for k := 0; k < total; k++ {
		if _, err := h.node("n1").Add(keyName(k), "x"); err != nil {
			t.Fatal(err)
		}
	}
	h.start("n2", "127.0.0.1:0")
	attempts := countFrames(h, func(frame int) error {
		if frame == dropAt {
			return fmt.Errorf("harness: injected connection drop at frame %d", dropAt)
		}
		return nil
	})

	// Round one is the join's: the map lands everywhere, the stream breaks.
	err := h.node("n2").Join(h.addr("n1"))
	if err == nil || !strings.Contains(err.Error(), "injected connection drop") {
		t.Fatalf("join across a dropped stream: %v, want the drop reported", err)
	}
	if !h.node("n1").Map().Has("n2") || !h.node("n2").Map().Has("n2") {
		t.Fatal("the membership change did not land on both nodes")
	}
	landed := h.node("n2").Store().Len()
	if landed == 0 || landed >= total {
		t.Fatalf("after the drop the joiner holds %d of %d keys, want some and not all", landed, total)
	}
	// Round two repairs the rest; a third finds nothing to do.
	for _, n := range h.running() {
		if err := n.DigestSync(); err != nil {
			t.Fatalf("%s: digest round after the drop: %v", n.ID(), err)
		}
	}
	convergedAfterRound(t, h)

	wantFrames := (total + batch - 1) / batch
	if got := attempts(); got > wantFrames+window {
		t.Errorf("%d frames attempted for %d keys (batch %d) — more than one window (%d) sent twice", got, total, batch, window)
	}
	if stats := sumTransferStats(h.running()); stats.FallbackKeys != 0 || stats.FrameRetries != 0 {
		t.Errorf("%d fallback keys and %d frame retries, want 0: there is no per-key path and no resume", stats.FallbackKeys, stats.FrameRetries)
	}
	if got := h.node("n2").Store().Len(); got != total {
		t.Fatalf("joiner holds %d keys, want %d", got, total)
	}
	for k := 0; k < total; k += 97 {
		for _, n := range h.running() {
			if got := mustCount(t, n, keyName(k)); int64(got+0.5) != 1 {
				t.Errorf("%s: count %s = %v after mid-stream drop, want ≈1", n.ID(), keyName(k), got)
			}
		}
	}
}

// TestTransferResumesAfterReceiverCrashRestart: the receiver of a
// ≥2000-key stream crashes after k merged frames and restarts from a
// snapshot taken at that point. The stream fails, and the next digest
// round ships exactly what the snapshot lacks: the cluster converges
// within two rounds, at most one window of frames is sent twice, and no
// key is lost.
func TestTransferResumesAfterReceiverCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart transfer chaos skipped in -short")
	}
	const (
		total  = 2400
		batch  = 64
		window = 1 // one frame a round trip: the crash point is exactly stopAt-1 merged frames
		stopAt = 6
	)
	h := newHarnessCfg(t, 1, 2, &TransferConfig{BatchKeys: batch, Window: window})
	keyName := func(k int) string { return fmt.Sprintf("cr-%d", k) }
	for k := 0; k < total; k++ {
		if _, err := h.node("n1").Add(keyName(k), "x"); err != nil {
			t.Fatal(err)
		}
	}
	h.start("n2", "127.0.0.1:0")

	parked := make(chan struct{})
	resume := make(chan struct{})
	attempts := countFrames(h, func(frame int) error {
		if frame == stopAt {
			close(parked) // hand control to the test body for the crash
			<-resume      // then send the frame to the dead receiver
		}
		return nil
	})
	joinDone := make(chan error, 1)
	go func() {
		_, err := h.do("n1", "CLUSTER", "JOIN", "n2", h.addr("n2"))
		joinDone <- err
	}()

	<-parked
	// Frames 1..stopAt-1 are merged. Snapshot NOW — sketches plus the
	// already-installed 2-node map — then kill the receiver, as a
	// periodic-snapshot-then-power-loss, and restart it from the snapshot
	// on its old address (no Rejoin: the persisted map records the
	// membership).
	h.save("n2")
	h.crash("n2")
	h.start("n2", h.addr("n2"))
	close(resume)
	if err := <-joinDone; err == nil {
		t.Log("the join's stream finished across the crash")
	} else {
		t.Logf("the join reported the broken stream: %v", err)
	}
	if got, want := h.node("n2").Store().Len(), (stopAt-1)*batch; got < want {
		t.Fatalf("restarted receiver holds %d keys, want at least the %d of its snapshot", got, want)
	}

	// A round that meets the pooled connection to the dead process drops
	// it and fails; the next redials. Two rounds at most, then converged.
	for round := 1; ; round++ {
		err := h.node("n1").DigestSync()
		if err == nil {
			break
		}
		if round == 2 {
			t.Fatalf("digest round %d after the crash: %v", round, err)
		}
	}
	convergedAfterRound(t, h)

	wantFrames := (total + batch - 1) / batch
	if got := attempts(); got > wantFrames+window {
		t.Errorf("%d frames attempted for %d keys (batch %d) — more than one window (%d) sent twice", got, total, batch, window)
	}
	if got := h.node("n2").Store().Len(); got != total {
		t.Fatalf("restarted receiver holds %d keys, want %d", got, total)
	}
	for k := 0; k < total; k += 101 {
		for _, n := range h.running() {
			if got := mustCount(t, n, keyName(k)); int64(got+0.5) != 1 {
				t.Errorf("%s: count %s = %v after crash-restart, want ≈1", n.ID(), keyName(k), got)
			}
		}
	}
}

// TestFrameLineScratchZeroAlloc: appending a frame line to a warmed buffer
// must not allocate — a stream's window buffer is sized by its first
// window and reused for every later one.
func TestFrameLineScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	items := []server.KeyBlob{
		{Key: "k1", Blob: bytes.Repeat([]byte{3}, 1500)},
		{Key: "k2", Blob: bytes.Repeat([]byte{9}, 900), Deadline: 12345},
	}
	raw := server.EncodeFrame(items)
	buf := appendFrameLine(nil, "e=7", raw) // size the buffer once
	avg := testing.AllocsPerRun(200, func() {
		buf = appendFrameLine(buf[:0], "e=7", raw)
	})
	if avg != 0 {
		t.Errorf("appendFrameLine allocates %.2f per frame with a warmed buffer, want 0", avg)
	}
	want := "CLUSTER XFER FRAME e=7 " + base64.StdEncoding.EncodeToString(raw)
	if got := string(buf); got != want {
		t.Errorf("frame line diverged from the reference encoding:\n got %q\nwant %q", got[:60], want[:60])
	}
}

// TestLeaveDrainHoldsOneWindow: a node off the map drains its whole store
// to the owners, and the live heap it needs for that is a window of
// frames, not a copy of the store — the drain walks shards and frames
// records as it goes, and a key goes once its owner merged it. The owner
// here is a stand-in that answers every frame +OK and samples the heap as
// the frames arrive.
func TestLeaveDrainHoldsOneWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var peak uint64
	var frames int
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r := bufio.NewReaderSize(c, 256<<10)
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			if !bytes.HasPrefix(line, []byte("CLUSTER XFER FRAME ")) {
				t.Errorf("the owner was sent %.40q, want only frames", line)
			}
			if frames++; frames%8 == 1 {
				if h := liveHeap(); h > peak {
					peak = h
				}
			}
			if _, err := c.Write([]byte("+OK\n")); err != nil {
				return
			}
		}
	}()

	n, err := NewNode("n1", testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetTransferConfig(TransferConfig{FrameBytes: 64 << 10, Window: 2})
	const keys = 2400 // dense keys of 3 592 bytes: 8.6 MB
	for i := 0; i < keys; i++ {
		if err := n.Store().Restore(fmt.Sprintf("dense-%04d", i), denseBlob(t, fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Off the map: the one member is the stand-in owner.
	m := n.Map()
	m = m.withNode("f1", ln.Addr().String(), m.Epoch+1, "n1").withoutNode("n1", m.Epoch+2, "n1")
	if !n.swapMap(m) {
		t.Fatal("fixture: the map did not supersede the node's")
	}

	before := liveHeap()
	if err := n.syncPass(true); err != nil {
		t.Fatal(err)
	}
	n.peers.closeAll()
	<-served
	if got := n.Store().Len(); got != 0 {
		t.Errorf("the drained node still holds %d keys", got)
	}
	if got := n.RebalancePushes(); got != keys {
		t.Errorf("drain counted %d pushes, want %d", got, keys)
	}
	growth := int64(peak) - int64(before)
	t.Logf("%d keys drained in %d frames: live heap grew by at most %d bytes", keys, frames, growth)
	if growth > 1<<20 {
		t.Errorf("draining grew the live heap by %d bytes, want at most 1 MB (a window is ~170 KB, the store 8.6 MB)", growth)
	}
}

// TestJoinLeaveCyclesConverge is the benchmark's many-keys membership
// sequence, inside this package: a 2-node, replica-2 cluster loaded with a
// skewed keyspace — of every 20 keys one large (past break-even or near
// it), five medium and fourteen small — sees three back-to-back cycles of
// a third node joining and leaving. After them one digest round per node
// repairs nothing and sends nothing, and every count equals a reference
// sketch fed the same elements: what the benchmark's converged and
// oracle_after_leave checks rely on.
func TestJoinLeaveCyclesConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("join/leave cycles skipped in -short")
	}
	h := newHarness(t, 2, 2)
	cardinality := func(i int) int {
		lo, hi := 1, 32
		switch m := i % 20; {
		case m == 0:
			lo, hi = 1001, 20000 // break-even is ~11 000 elements at the test precision
		case m <= 5:
			lo, hi = 33, 1000
		}
		return lo + i*7919%(hi-lo+1)
	}
	const keys = 200
	want := make([]float64, keys)
	sparse, dense := 0, 0
	for i := range want {
		key := fmt.Sprintf("mk%05d", i)
		els := make([]string, cardinality(i))
		ref := exaloglog.New(testP)
		hy, err := core.NewHybrid(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		for j := range els {
			els[j] = fmt.Sprintf("%s-%d", key, j)
			ref.AddString(els[j])
			hy.AddString(els[j])
		}
		if hy.IsSparse() {
			sparse++
		} else {
			dense++
		}
		want[i] = ref.Estimate()
		if _, err := h.node([]string{"n1", "n2"}[i%2]).Add(key, els...); err != nil {
			t.Fatal(err)
		}
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("keyspace is not mixed: %d sparse, %d dense keys", sparse, dense)
	}

	for cycle := 1; cycle <= 3; cycle++ {
		id := fmt.Sprintf("j%d", cycle)
		j := h.start(id, "127.0.0.1:0")
		if err := j.Join(h.addr("n1")); err != nil {
			t.Fatalf("cycle %d: join: %v", cycle, err)
		}
		if j.Store().Len() == 0 {
			t.Fatalf("cycle %d: the joiner took no keys", cycle)
		}
		if err := j.Leave(); err != nil {
			t.Fatalf("cycle %d: leave: %v", cycle, err)
		}
		if got := j.Store().Len(); got != 0 {
			t.Errorf("cycle %d: the leaver still holds %d keys", cycle, got)
		}
		h.crash(id)
	}

	convergedAfterRound(t, h)
	for i := range want {
		key := fmt.Sprintf("mk%05d", i)
		for _, n := range h.running() {
			if got := mustCount(t, n, key); got != want[i] {
				t.Errorf("%s via %s: count %v, reference %v", key, n.ID(), got, want[i])
			}
		}
	}
}
