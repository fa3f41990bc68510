package cluster

// Tests for digest anti-entropy (digestsync.go): the ELD1/ELK1 payload
// codecs, the epoch fence, and the two headline properties — a
// CONVERGED cluster pays O(members) messages per round regardless of
// key count, and a diverged replica is repaired by shipping only the
// keys that actually differ.

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"exaloglog/internal/core"
	"exaloglog/server"
)

// countClusterVerbs installs an intercept that counts every outbound
// CLUSTER subcommand of every node and returns a reader of the tally;
// the empty verb reads the total.
func countClusterVerbs(h *harness) (count func(verb string) int) {
	var mu sync.Mutex
	counts := map[string]int{}
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) >= 2 && strings.EqualFold(parts[0], "CLUSTER") {
			mu.Lock()
			counts[strings.ToUpper(parts[1])]++
			counts[""]++
			mu.Unlock()
		}
		return nil
	})
	h.t.Cleanup(func() { h.setIntercept(nil) })
	return func(verb string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[verb]
	}
}

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
	// The all-zero vector of an empty store as the retired codec shrank it,
	// "ELC1" around 1030 bytes: a payload is base64 of the ELD1 bytes, and
	// this is refused as the unknown magic it now is.
	if _, err := decodeDigestVector("RUxDMWWGCAC6s7POf/7//////////////////////////////////////////////////8sUlYA="); err == nil || !strings.Contains(err.Error(), "digest vector: bad magic") {
		t.Errorf("ELC1-wrapped vector: err = %v, want a digest vector bad-magic error", err)
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
	// Three keys' digests in the retired codec's "ELC1" container.
	if _, err := decodeKeyDigests("RUxDMWW2AQC6s6zO/M2enp1lJcSc6jCR5hwUpaJgHxI4IIltM8dSPm/////4Dx+9eci7EfdK////pAcUTIX/WP/xU2kv"); err == nil || !strings.Contains(err.Error(), "key digests: bad magic") {
		t.Errorf("ELC1-wrapped key digests: err = %v, want a key digests bad-magic error", err)
	}
	// One key twice, with the same digest or another: refused, not left to
	// whichever record came last.
	for _, second := range []uint64{1, 2} {
		twice := encodeKeyDigests([]server.KeyDigest{{Key: "a", Digest: 1}, {Key: "b", Digest: 3}, {Key: "a", Digest: second}})
		if _, err := decodeKeyDigests(twice); err == nil || !strings.Contains(err.Error(), `key "a" repeated`) {
			t.Errorf("key a repeated with digest %d: err = %v, want a repeated-key error", second, err)
		}
	}
}

// FuzzDigestDecode: whatever a DSUM or DKEYS reply carries, the ELD1 and
// ELK1 decoders refuse it or return what encodes back to the same digests —
// one per shard for a vector, one per key, each key once, for key digests.
func FuzzDigestDecode(f *testing.F) {
	vec := make([]uint64, server.NumShards)
	for i := range vec {
		vec[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	kds := []server.KeyDigest{{Key: "a", Digest: 1}, {Key: "visits:2026-08-07", Digest: 0xdeadbeefcafef00d}}
	for _, seed := range []string{
		encodeDigestVector(vec), encodeDigestVector(vec[:10]), encodeDigestVector(nil),
		encodeKeyDigests(kds), encodeKeyDigests(nil),
		encodeKeyDigests(append(kds, server.KeyDigest{Key: "a", Digest: 2})), // a repeated key
		encodeKeyDigests([]server.KeyDigest{{Key: "", Digest: 1}}),           // an empty key
		"", "###", "RUxEMQ==", "RUxLMQ==", "RUxLMf8=",
		"RUxDMWWGCAC6s7POf/7//////////////////////////////////////////////////8sUlYA=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if v, err := decodeDigestVector(body); err == nil {
			if len(v) != server.NumShards {
				t.Fatalf("accepted a vector of %d digests for %d shards", len(v), server.NumShards)
			}
			again, err := decodeDigestVector(encodeDigestVector(v))
			if err != nil || !slices.Equal(again, v) {
				t.Fatalf("a vector does not survive its own encoding: %v", err)
			}
		}
		got, err := decodeKeyDigests(body)
		if err != nil {
			return
		}
		payload, _ := base64.StdEncoding.DecodeString(body)
		if count, _ := binary.Uvarint(payload[len(digestKeysMagic):]); count != uint64(len(got)) {
			t.Fatalf("%d records decoded into %d keys", count, len(got))
		}
		var back []server.KeyDigest
		for k, d := range got {
			if k == "" {
				t.Fatal("accepted an empty key")
			}
			back = append(back, server.KeyDigest{Key: k, Digest: d})
		}
		again, err := decodeKeyDigests(encodeKeyDigests(back))
		if err != nil || !maps.Equal(again, got) {
			t.Fatalf("key digests do not survive their own encoding: %v", err)
		}
	})
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

	count := countClusterVerbs(h)

	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatalf("digest sync on a converged cluster: %v", err)
	}

	if got, want := count("DSUM"), 2; got != want {
		t.Errorf("converged round sent %d DSUM messages, want %d (one per peer)", got, want)
	}
	for _, verb := range []string{"DKEYS", "XFER", "ABSORB", "MLADD", "MAP", "SETMAP"} {
		if count(verb) != 0 {
			t.Errorf("converged round sent %d %s messages, want 0", count(verb), verb)
		}
	}
	if total := count(""); total >= keys/10 {
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
	h := newHarness(t, 2, 2)
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

	count := countClusterVerbs(h)

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

	dkeys, xfer := count("DKEYS"), count("XFER")
	if dsum := count("DSUM"); dsum != 1 || dkeys != 1 {
		t.Errorf("round sent %d DSUM + %d DKEYS, want 1 + 1 (narrow, then fetch once)", dsum, dkeys)
	}

	// The round after the repair is silent again: digests agree.
	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatal(err)
	}
	if count("DKEYS") != dkeys || count("XFER") != xfer {
		t.Errorf("post-repair round still moved data: %d DKEYS, %d XFER messages", count("DKEYS")-dkeys, count("XFER")-xfer)
	}
}

// TestDigestSyncBidirectional: divergence in BOTH directions (each
// replica holds elements the other missed) converges after each side
// runs its own push-only round — merge is idempotent and monotone, so
// the union wins on both.
func TestDigestSyncBidirectional(t *testing.T) {
	h := newHarness(t, 2, 2)
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
	h := newHarness(t, 3, 2)
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

// TestDigestSyncDrainsStray: a write that landed on a non-owner — its
// coordinator routed it under a stale map — is handed to the key's
// owners and dropped locally by ONE digest round of the node holding
// it. The drain is a rebalance push, not a digest repair.
func TestDigestSyncDrainsStray(t *testing.T) {
	h := newHarness(t, 3, 2)
	n3 := h.node("n3")
	m := n3.Map()
	key := ""
	for k := 0; key == ""; k++ {
		if cand := fmt.Sprintf("stray-%d", k); !slices.Contains(m.ownerIDs(cand), "n3") {
			key = cand
		}
	}
	want, err := core.NewHybrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The owners hold part of the key; the late write reaches n3 alone.
	for _, el := range []string{"a", "b", "c"} {
		want.AddString(el)
	}
	if _, err := h.node("n1").Add(key, "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	for _, el := range []string{"c", "late-1", "late-2"} {
		want.AddString(el)
	}
	if _, err := n3.Store().Add(key, "c", "late-1", "late-2"); err != nil {
		t.Fatal(err)
	}
	_, repairedBefore := n3.DigestSyncStats()

	if err := n3.DigestSync(); err != nil {
		t.Fatalf("digest round with a stray: %v", err)
	}

	if _, ok := n3.Store().Dump(key); ok {
		t.Errorf("n3 still holds the stray %s after its digest round", key)
	}
	wantBlob, _ := want.MarshalBinary()
	for _, id := range m.ownerIDs(key) {
		blob, ok := h.node(id).Store().Dump(key)
		if !ok || !bytes.Equal(blob, wantBlob) {
			t.Errorf("owner %s holds %d bytes of %s (present %v), the reference %d bytes", id, len(blob), key, ok, len(wantBlob))
		}
	}
	if _, repaired := n3.DigestSyncStats(); repaired != repairedBefore {
		t.Errorf("draining a stray counted %d digest repairs, want 0", repaired-repairedBefore)
	}
}

// TestDigestSyncHealsMissedJoin: a node partitioned through a JOIN heals
// with digest rounds alone — no Gossip call, so this is what keeps maps
// converging under -gossip-interval 0. The refused DSUM costs one MAP
// pull and one targeted SETMAP for the one stale peer, and nothing once
// the maps agree.
func TestDigestSyncHealsMissedJoin(t *testing.T) {
	h := newHarness(t, 3, 2)
	const keys = 20
	ref := make([]float64, keys)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("mj-%d", k)
		if _, err := h.node("n2").Add(key, "x", "y", fmt.Sprint(k)); err != nil {
			t.Fatal(err)
		}
		ref[k] = mustCount(t, h.node("n1"), key)
	}
	h.partition("n3", true)
	h.start("x1", "127.0.0.1:0")
	h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1")) // the broadcast to n3 fails: that is the point
	if !h.node("n1").Map().Has("x1") || h.node("n3").Map().Has("x1") {
		t.Fatal("fixture: the join must land on the majority and miss n3")
	}
	h.partition("n3", false)

	count := countClusterVerbs(h)
	round := func() {
		t.Helper()
		for _, n := range h.running() {
			if err := n.DigestSync(); err != nil {
				t.Fatalf("%s digest round: %v", n.ID(), err)
			}
		}
	}
	round()
	enc := h.node("n1").Map().Encode()
	for _, n := range h.running() {
		if got := n.Map().Encode(); got != enc {
			t.Fatalf("%s holds %s after one digest round each, the cluster %s", n.ID(), got, enc)
		}
	}
	if pulls, pushes := count("MAP"), count("SETMAP"); pulls > 1 || pushes > 1 {
		t.Errorf("healing one stale peer cost %d MAP pulls and %d SETMAPs, want ≤ 1 each", pulls, pushes)
	}
	if count("GOSSIP") != 0 {
		t.Error("the heal used gossip")
	}
	pulls, pushes := count("MAP"), count("SETMAP")
	round()
	if count("MAP") != pulls || count("SETMAP") != pushes {
		t.Errorf("a converged round still moved maps: %d MAP pulls, %d SETMAPs", count("MAP")-pulls, count("SETMAP")-pushes)
	}
	for k := 0; k < keys; k++ {
		for _, n := range h.running() {
			if got := mustCount(t, n, fmt.Sprintf("mj-%d", k)); got != ref[k] {
				t.Errorf("%s: count mj-%d = %v, want %v after the heal", n.ID(), k, got, ref[k])
			}
		}
	}
}
