package cluster

// Tests for the streaming bulk-transfer transport (transfer.go): the
// stall fault that I/O deadlines exist to beat, and the two headline chaos
// scenarios — a mid-stream connection drop and a receiver
// crash-restart-from-snapshot — both of which must RESUME from the
// last acked frame rather than restart from frame one, and converge
// with zero lost keys.

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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
	h := newHarnessCfg(t, 3, 2, &TransferConfig{
		Timeout:     250 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		RetryBudget: 2,
	})
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

// TestTransferResumesAfterMidStreamDrop: rebalancing ≥2000 keys onto a
// joining node survives an injected connection drop mid-stream — the
// sender redials and RESUMES from the last acked frame (the resume
// handshake's seq proves it), nothing degrades to the per-key path,
// and every key converges.
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
	h := newHarnessCfg(t, 1, 2, &TransferConfig{
		BatchKeys:     batch,
		Window:        window,
		Timeout:       2 * time.Second,
		RetryBudget:   4,
		BackoffBase:   5 * time.Millisecond,
		MinStreamKeys: 1,
	})
	keyName := func(k int) string { return fmt.Sprintf("drop-%d", k) }
	for k := 0; k < total; k++ {
		if _, err := h.node("n1").Add(keyName(k), "x"); err != nil {
			t.Fatal(err)
		}
	}
	h.start("n2", "127.0.0.1:0")

	var mu sync.Mutex
	var begins []uint64
	var postFrames []uint64
	dropped := false
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) < 5 || parts[0] != "CLUSTER" || !strings.EqualFold(parts[1], "XFER") {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		switch parts[2] {
		case "BEGIN":
			seq, _ := strconv.ParseUint(strings.TrimPrefix(parts[4], "seq="), 10, 64)
			begins = append(begins, seq)
		case "FRAME":
			seq, _ := strconv.ParseUint(parts[4], 10, 64)
			if seq == dropAt && !dropped {
				dropped = true
				return fmt.Errorf("harness: injected connection drop at frame %d", dropAt)
			}
			if dropped {
				postFrames = append(postFrames, seq)
			}
		}
		return nil
	})
	defer h.setIntercept(nil)

	if err := h.node("n2").Join(h.addr("n1")); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	beginsCopy := append([]uint64(nil), begins...)
	postCopy := append([]uint64(nil), postFrames...)
	mu.Unlock()
	if len(beginsCopy) < 2 {
		t.Fatalf("saw %d XFER BEGINs, want ≥2 (initial + resume)", len(beginsCopy))
	}
	if beginsCopy[0] != 1 {
		t.Errorf("first stream began at seq %d, want 1", beginsCopy[0])
	}
	resumeSeq := beginsCopy[1]
	if resumeSeq <= 1 || resumeSeq > dropAt {
		t.Errorf("resume handshake asked for seq %d, want in (1, %d] — the stream restarted instead of resuming", resumeSeq, dropAt)
	}
	minPost := uint64(0)
	for _, s := range postCopy {
		if minPost == 0 || s < minPost {
			minPost = s
		}
	}
	if minPost <= 1 {
		t.Errorf("after the drop the first re-sent frame was %d — resumed from frame 0, not the last acked frame", minPost)
	}

	stats := sumTransferStats(h.running())
	if stats.StreamsResumed == 0 {
		t.Error("no stream recorded a resume")
	}
	if stats.FallbackKeys != 0 {
		t.Errorf("%d keys degraded to per-key ABSORB — the retry budget should have carried the stream", stats.FallbackKeys)
	}
	wantFrames := (total + batch - 1) / batch
	if got := int(stats.FramesSent); got > wantFrames+window+2 {
		t.Errorf("sent %d frames for %d keys (batch %d) — message count is not O(keys/batch)", got, total, batch)
	}

	// Zero lost keys: the joiner holds every replica and counts agree.
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
// ≥2000-key stream is crashed after k acked frames, restarted from a
// snapshot taken at that point, and the stream must resume at frame
// k+1 (not frame 1: the resume handshake and the first re-sent frame
// prove it), converge with zero lost keys, and stay within an
// O(keys/batch) message budget.
func TestTransferResumesAfterReceiverCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart transfer chaos skipped in -short")
	}
	const (
		total  = 2400
		batch  = 64
		stopAt = 6 // frames 1..stopAt-1 are acked when the receiver dies
		budget = 8
	)
	h := newHarnessCfg(t, 1, 2, &TransferConfig{
		BatchKeys:     batch,
		Window:        1, // stop-and-wait: the crash point is exactly stopAt-1 acked frames
		Timeout:       2 * time.Second,
		RetryBudget:   budget,
		BackoffBase:   25 * time.Millisecond,
		MinStreamKeys: 1,
	})
	keyName := func(k int) string { return fmt.Sprintf("cr-%d", k) }
	for k := 0; k < total; k++ {
		if _, err := h.node("n1").Add(keyName(k), "x"); err != nil {
			t.Fatal(err)
		}
	}
	h.start("n2", "127.0.0.1:0")

	parked := make(chan struct{})
	resumeCh := make(chan struct{})
	var mu sync.Mutex
	var begins []uint64
	var postFrames []uint64
	parkedOnce := false
	phase2 := false
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) < 5 || parts[0] != "CLUSTER" || !strings.EqualFold(parts[1], "XFER") {
			return nil
		}
		mu.Lock()
		switch parts[2] {
		case "BEGIN":
			seq, _ := strconv.ParseUint(strings.TrimPrefix(parts[4], "seq="), 10, 64)
			begins = append(begins, seq)
		case "FRAME":
			seq, _ := strconv.ParseUint(parts[4], 10, 64)
			if seq == stopAt && !parkedOnce {
				parkedOnce = true
				mu.Unlock()
				close(parked) // hand control to the test body for the crash
				<-resumeCh
				return fmt.Errorf("harness: receiver crashed under frame %d", stopAt)
			}
			if phase2 {
				postFrames = append(postFrames, seq)
			}
		}
		mu.Unlock()
		return nil
	})
	defer h.setIntercept(nil)

	joinDone := make(chan string, 1)
	go func() {
		reply, err := h.do("n1", "CLUSTER", "JOIN", "n2", h.addr("n2"))
		if err != nil {
			reply = "ERR " + err.Error()
		}
		joinDone <- reply
	}()

	<-parked
	// Frames 1..stopAt-1 are applied (window 1 ⇒ strict stop-and-wait).
	// Snapshot NOW — sketches plus the already-installed 2-node map —
	// then kill the receiver, as a periodic-snapshot-then-power-loss.
	h.save("n2")
	h.crash("n2")
	mu.Lock()
	phase2 = true
	mu.Unlock()
	close(resumeCh)
	// Restart from the snapshot on the old address. No Rejoin: the
	// persisted map already records the membership; the inbound stream
	// finds a fresh node that lost its session but kept its data.
	h.start("n2", h.addr("n2"))

	if reply := <-joinDone; !strings.HasPrefix(reply, "OK") {
		t.Fatalf("join across the receiver crash replied %q, want OK", reply)
	}
	// A digest round flushes the pool connections that died with the old
	// n2 process (the pool drops a dead connection on first use and
	// redials on the next) and confirms the maps agree across the crash.
	h.converge(10 * time.Second)

	mu.Lock()
	beginsCopy := append([]uint64(nil), begins...)
	postCopy := append([]uint64(nil), postFrames...)
	mu.Unlock()
	if len(beginsCopy) < 2 {
		t.Fatalf("saw %d XFER BEGINs, want ≥2 (initial + resume)", len(beginsCopy))
	}
	if beginsCopy[0] != 1 {
		t.Errorf("first stream began at seq %d, want 1", beginsCopy[0])
	}
	for i, seq := range beginsCopy[1:] {
		if seq != stopAt {
			t.Errorf("resume handshake %d asked for seq %d, want %d (the first unacked frame)", i+1, seq, stopAt)
		}
	}
	minPost := uint64(0)
	for _, s := range postCopy {
		if minPost == 0 || s < minPost {
			minPost = s
		}
	}
	if minPost != stopAt {
		t.Errorf("first frame after the restart was %d, want %d — the stream must resume, not rewind", minPost, stopAt)
	}

	stats := sumTransferStats(h.running())
	if stats.StreamsResumed == 0 {
		t.Error("no stream recorded a resume")
	}
	if stats.FallbackKeys != 0 {
		t.Errorf("%d keys degraded to per-key ABSORB across the crash", stats.FallbackKeys)
	}
	wantFrames := (total + batch - 1) / batch
	if got := int(stats.FramesSent); got > wantFrames+budget+2 {
		t.Errorf("sent %d frames for %d keys (batch %d) — message count is not O(keys/batch)", got, total, batch)
	}

	// Zero lost keys, on both the sender and the restarted receiver.
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

// TestFrameLineScratchZeroAlloc: assembling a frame line into a warmed
// pooled scratch buffer must not allocate — the sender's steady state
// re-uses one buffer per stream, whatever the frame count.
func TestFrameLineScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	items := []server.KeyBlob{
		{Key: "k1", Blob: bytes.Repeat([]byte{3}, 1500)},
		{Key: "k2", Blob: bytes.Repeat([]byte{9}, 900), Deadline: 12345},
	}
	raw := server.EncodeFrame(items)
	bufp := lineScratch.Get().(*[]byte)
	defer lineScratch.Put(bufp)
	*bufp = appendFrameLine((*bufp)[:0], "sid-warmup", 1, raw) // size the buffer once
	seq := uint64(2)
	avg := testing.AllocsPerRun(200, func() {
		*bufp = appendFrameLine((*bufp)[:0], "sid-warmup", seq, raw)
		seq++
	})
	if avg != 0 {
		t.Errorf("appendFrameLine allocates %.2f per frame with a warmed scratch buffer, want 0", avg)
	}
	// The assembled line is still correct after the pooling dance.
	want := "CLUSTER XFER FRAME sid-warmup " +
		fmt.Sprint(seq-1) + " " + base64.StdEncoding.EncodeToString(raw)
	if got := string(*bufp); got != want {
		t.Errorf("pooled frame line diverged from the reference encoding:\n got %q\nwant %q", got[:60], want[:60])
	}
}
