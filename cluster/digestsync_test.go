package cluster

// Tests for digest anti-entropy (digestsync.go): the ELD1/ELK1 payload
// codecs, the epoch fence, and the two headline properties — a
// CONVERGED cluster pays O(members) messages per round regardless of
// key count, and a diverged replica is repaired by shipping only the
// keys that actually differ.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"exaloglog/server"
)

func TestDigestVectorRoundTrip(t *testing.T) {
	v := make([]uint64, server.NumShards)
	for i := range v {
		v[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	got, err := decodeDigestVector(encodeDigestVector(v))
	if err != nil {
		t.Fatalf("decode of a valid vector: %v", err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("shard %d digest changed: %#x → %#x", i, v[i], got[i])
		}
	}
	// A vector with the wrong shard count must be rejected: comparing
	// digests across different shard geometries is meaningless.
	if _, err := decodeDigestVector(encodeDigestVector(v[:10])); err == nil {
		t.Error("10-shard vector accepted")
	}
	if _, err := decodeDigestVector("not base64!!"); err == nil {
		t.Error("non-base64 vector accepted")
	}
	if _, err := decodeDigestVector(""); err == nil {
		t.Error("empty vector accepted")
	}
}

func TestKeyDigestsRoundTrip(t *testing.T) {
	kds := []server.KeyDigest{
		{Key: "a", Digest: 1},
		{Key: "visits:2026-08-07", Digest: 0xdeadbeefcafef00d},
		{Key: strings.Repeat("k", 500), Digest: 0},
	}
	got, err := decodeKeyDigests(encodeKeyDigests(kds))
	if err != nil {
		t.Fatalf("decode of valid key digests: %v", err)
	}
	if len(got) != len(kds) {
		t.Fatalf("decoded %d key digests, want %d", len(got), len(kds))
	}
	for _, kd := range kds {
		if got[kd.Key] != kd.Digest {
			t.Errorf("key %q digest %#x, want %#x", kd.Key, got[kd.Key], kd.Digest)
		}
	}
	// The empty set is a valid reply (a shard can be all strays).
	if got, err := decodeKeyDigests(encodeKeyDigests(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty key digests: got %v, %v", got, err)
	}
	if _, err := decodeKeyDigests("###"); err == nil {
		t.Error("non-base64 key digests accepted")
	}
}

// TestDigestHandlersEpochFence: DSUM and DKEYS refuse a requester whose
// map epoch differs with -STALE — digests computed under different
// ownership views cover different key populations, so comparing them
// would manufacture phantom divergence.
func TestDigestHandlersEpochFence(t *testing.T) {
	h := newHarness(t, 2, 2)
	n := h.node("n1")
	cur := n.currentMap().Epoch
	wrong := fmt.Sprintf("e=%d", cur+7)
	for _, args := range [][]string{
		{"CLUSTER", "DSUM", "n2", wrong},
		{"CLUSTER", "DKEYS", "n2", wrong, "0,1"},
	} {
		_, err := h.do("n1", args...)
		if err == nil || !strings.Contains(err.Error(), "STALE") {
			t.Errorf("%s with wrong epoch: err = %v, want -STALE", args[1], err)
		}
	}
	// The right epoch answers with a payload.
	reply, err := h.do("n1", "CLUSTER", "DSUM", "n2", fmt.Sprintf("e=%d", cur))
	if err != nil {
		t.Fatalf("DSUM at the current epoch: %v", err)
	}
	if _, err := decodeDigestVector(reply); err != nil {
		t.Fatalf("DSUM reply did not decode: %v", err)
	}
	if _, err := h.do("n1", "CLUSTER", "DKEYS", "bad id", fmt.Sprintf("e=%d", cur), "0"); err == nil {
		t.Error("invalid requester ID accepted")
	}
	if _, err := h.do("n1", "CLUSTER", "DKEYS", "n2", fmt.Sprintf("e=%d", cur), "999"); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}

// TestDigestSyncConvergedMessageCount: on a converged cluster a full
// digest round from one node is ONE DSUM message per peer — O(members),
// not O(keys) — with no key-digest fetches and no data movement at all.
func TestDigestSyncConvergedMessageCount(t *testing.T) {
	const keys = 300
	h := newHarness(t, 3, 2)
	for k := 0; k < keys; k++ {
		if _, err := h.node("n1").Add(fmt.Sprintf("dg-%d", k), "x", "y"); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	counts := map[string]int{}
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) >= 2 && strings.EqualFold(parts[0], "CLUSTER") {
			mu.Lock()
			counts[strings.ToUpper(parts[1])]++
			mu.Unlock()
		}
		return nil
	})
	defer h.setIntercept(nil)

	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatalf("digest sync on a converged cluster: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if got, want := counts["DSUM"], 2; got != want {
		t.Errorf("converged round sent %d DSUM messages, want %d (one per peer)", got, want)
	}
	for _, verb := range []string{"DKEYS", "XFER", "ABSORB", "MLADD"} {
		if counts[verb] != 0 {
			t.Errorf("converged round sent %d %s messages, want 0", counts[verb], verb)
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total >= keys/10 {
		t.Errorf("converged round cost %d messages for %d keys — not O(members)", total, keys)
	}
	if _, repaired := h.node("n1").DigestSyncStats(); repaired != 0 {
		t.Errorf("converged round repaired %d keys, want 0", repaired)
	}
}

// TestDigestSyncRepairsDivergence: keys silently lost by one replica
// (a rolled-back disk, a dropped replication write) are found by digest
// comparison and re-shipped — and ONLY the divergent keys move, over
// one batched stream, not a full re-push of the keyspace.
func TestDigestSyncRepairsDivergence(t *testing.T) {
	const keys = 60
	lost := map[string]bool{"dv-3": true, "dv-17": true, "dv-29": true, "dv-41": true, "dv-55": true}
	h := newHarnessCfg(t, 2, 2, &TransferConfig{MinStreamKeys: 1})
	ref := make(map[string]float64, keys)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("dv-%d", k)
		if _, err := h.node("n1").Add(key, "a", "b", "c"); err != nil {
			t.Fatal(err)
		}
		ref[key] = mustCount(t, h.node("n1"), key)
	}
	for key := range lost {
		if !h.node("n2").Store().Delete(key) {
			t.Fatalf("fixture: %s was not on n2", key)
		}
	}

	var mu sync.Mutex
	counts := map[string]int{}
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) >= 2 && strings.EqualFold(parts[0], "CLUSTER") {
			mu.Lock()
			counts[strings.ToUpper(parts[1])]++
			mu.Unlock()
		}
		return nil
	})
	defer h.setIntercept(nil)

	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatalf("digest sync over diverged replicas: %v", err)
	}

	// Every lost key is back on n2 with its full count.
	for key := range lost {
		if _, ok := h.node("n2").Store().Dump(key); !ok {
			t.Errorf("%s still missing from n2 after digest repair", key)
		}
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("dv-%d", k)
		// n2's LOCAL copy must carry the full count — the cluster-wide
		// union would mask a hole by borrowing n1's replica.
		got, err := h.node("n2").Store().Count(key)
		if err != nil {
			t.Errorf("n2: count %s after repair: %v", key, err)
			continue
		}
		if got != ref[key] {
			t.Errorf("n2: local count %s = %v after repair, want %v", key, got, ref[key])
		}
	}
	if _, repaired := h.node("n1").DigestSyncStats(); repaired != uint64(len(lost)) {
		t.Errorf("repaired counter = %d, want %d", repaired, len(lost))
	}

	mu.Lock()
	dsum, dkeys := counts["DSUM"], counts["DKEYS"]
	mu.Unlock()
	if dsum != 1 || dkeys != 1 {
		t.Errorf("round sent %d DSUM + %d DKEYS, want 1 + 1 (narrow, then fetch once)", dsum, dkeys)
	}

	// The round after the repair is silent again: digests agree.
	mu.Lock()
	clear(counts)
	mu.Unlock()
	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts["DKEYS"] != 0 || counts["XFER"] != 0 {
		t.Errorf("post-repair round still moved data: %v", counts)
	}
}

// TestDigestSyncBidirectional: divergence in BOTH directions (each
// replica holds elements the other missed) converges after each side
// runs its own push-only round — merge is idempotent and monotone, so
// the union wins on both.
func TestDigestSyncBidirectional(t *testing.T) {
	h := newHarnessCfg(t, 2, 2, &TransferConfig{MinStreamKeys: 1})
	if _, err := h.node("n1").Add("bi", "shared"); err != nil {
		t.Fatal(err)
	}
	// Local-only writes, bypassing replication: each store diverges.
	if _, err := h.node("n1").Store().Add("bi", "only-on-n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.node("n2").Store().Add("bi", "only-on-n2"); err != nil {
		t.Fatal(err)
	}
	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatal(err)
	}
	if err := h.node("n2").DigestSync(); err != nil {
		t.Fatal(err)
	}
	c1, err := h.node("n1").Store().Count("bi")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := h.node("n2").Store().Count("bi")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("replicas still disagree after both rounds: n1=%v n2=%v", c1, c2)
	}
	if int64(c1+0.5) != 3 {
		t.Errorf("union count = %v, want ≈3 — a divergent element was lost", c1)
	}
}

// TestDigestSyncChaosUnderLoad: delete a slice of keys from one replica
// of a 3-node cluster, then let EVERY node run a digest round (the
// deployment shape: each node's ticker fires independently). The
// cluster must converge to the union, with a total message budget far
// below one message per key — the whole point of digest anti-entropy.
func TestDigestSyncChaosUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("digest chaos skipped in -short")
	}
	const keys = 500
	h := newHarnessCfg(t, 3, 2, &TransferConfig{MinStreamKeys: 4})
	ref := make(map[string]float64, keys)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("dc-%d", k)
		if _, err := h.node("n1").Add(key, "a", "b"); err != nil {
			t.Fatal(err)
		}
		ref[key] = mustCount(t, h.node("n1"), key)
	}
	// n2 loses every 9th key it holds (it only replicates ~2/3 of the
	// keyspace at replicas=2, so track which deletions landed).
	var droppedKeys []string
	for k := 0; k < keys; k += 9 {
		key := fmt.Sprintf("dc-%d", k)
		if h.node("n2").Store().Delete(key) {
			droppedKeys = append(droppedKeys, key)
		}
	}
	if len(droppedKeys) == 0 {
		t.Fatal("fixture: n2 held none of the dropped keys")
	}

	var mu sync.Mutex
	total := 0
	h.setIntercept(func(id, addr string, parts []string) error {
		mu.Lock()
		total++
		mu.Unlock()
		return nil
	})
	defer h.setIntercept(nil)

	for _, n := range h.running() {
		if err := n.DigestSync(); err != nil {
			t.Fatalf("%s digest round: %v", n.ID(), err)
		}
	}

	for _, key := range droppedKeys {
		got, err := h.node("n2").Store().Count(key)
		if err != nil {
			t.Errorf("n2: %s still missing after chaos repair: %v", key, err)
			continue
		}
		if got != ref[key] {
			t.Errorf("n2: local count %s = %v after chaos repair, want %v", key, got, ref[key])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// 3 nodes × 2 peers: 6 DSUM, a handful of DKEYS and stream messages
	// for the diverged shards. A per-key protocol would need ≥500.
	if total >= keys/2 {
		t.Errorf("full-cluster repair cost %d messages for %d keys — digest rounds should be far below O(keys)", total, keys)
	}
	var rounds, repaired uint64
	for _, n := range h.running() {
		r, k := n.DigestSyncStats()
		rounds += r
		repaired += k
	}
	if rounds == 0 {
		t.Error("no node recorded a digest round")
	}
	if repaired < uint64(len(droppedKeys)) {
		t.Errorf("cluster repaired %d keys, want ≥ %d (every dropped key re-shipped)", repaired, len(droppedKeys))
	}
}
