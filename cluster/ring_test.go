package cluster

import (
	"fmt"
	"testing"
)

func TestRingOwnersDistinctAndDeterministic(t *testing.T) {
	t.Parallel()
	r := newRing([]string{"a", "b", "c", "d"})
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := r.ownersOf(key, 3)
		if len(owners) != 3 {
			t.Fatalf("ownersOf(%q,3) = %v", key, owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner %q for %q", o, key)
			}
			seen[o] = true
		}
		again := r.ownersOf(key, 3)
		for j := range owners {
			if owners[j] != again[j] {
				t.Fatalf("ownersOf(%q) not deterministic: %v vs %v", key, owners, again)
			}
		}
	}
}

func TestRingFewerNodesThanReplicas(t *testing.T) {
	t.Parallel()
	r := newRing([]string{"solo"})
	owners := r.ownersOf("k", 3)
	if len(owners) != 1 || owners[0] != "solo" {
		t.Fatalf("ownersOf = %v, want [solo]", owners)
	}
	if got := newRing(nil).ownersOf("k", 2); got != nil {
		t.Fatalf("empty ring ownersOf = %v, want nil", got)
	}
}

func TestRingBalance(t *testing.T) {
	t.Parallel()
	ids := []string{"a", "b", "c", "d", "e"}
	r := newRing(ids)
	counts := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.ownersOf(fmt.Sprintf("key-%d", i), 1)[0]]++
	}
	fair := keys / len(ids)
	for _, id := range ids {
		if c := counts[id]; c < fair/2 || c > fair*2 {
			t.Errorf("node %s owns %d of %d keys (fair share %d): ring too skewed", id, c, keys, fair)
		}
	}
}

// TestRingStability: adding one node moves only the keys it now owns —
// keys staying put is the point of consistent hashing.
func TestRingStability(t *testing.T) {
	t.Parallel()
	before := newRing([]string{"a", "b", "c"})
	after := newRing([]string{"a", "b", "c", "d"})
	const keys = 10000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		b := before.ownersOf(key, 1)[0]
		a := after.ownersOf(key, 1)[0]
		if b != a {
			if a != "d" {
				t.Fatalf("key %q moved %s → %s, not to the new node", key, b, a)
			}
			moved++
		}
	}
	// ~1/4 of keys should move to the new node; far more means poor stability.
	if moved > keys/2 {
		t.Errorf("%d of %d keys moved on join, want ≈ %d", moved, keys, keys/4)
	}
}

func TestMapEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	m := NewMap(2, Member{"n1", "127.0.0.1:7700"}, Member{"n2", "127.0.0.1:7701"})
	m2 := m.withNode("n3", "127.0.0.1:7702", 2, "n1")
	dec, err := DecodeMap([]string{"v2", "2", "2", "n1", "2",
		"n1=127.0.0.1:7700", "n2=127.0.0.1:7701", "n3=127.0.0.1:7702"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Encode() != m2.Encode() {
		t.Errorf("round trip mismatch:\n got %q\nwant %q", dec.Encode(), m2.Encode())
	}
	if dec.Epoch != 2 || dec.Version != 2 || dec.Coordinator != "n1" || dec.Replicas != 2 || dec.Len() != 3 {
		t.Errorf("decoded map %+v", dec)
	}
	// Owners agree between the original and the decoded map.
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		a, b := m2.Owners(key), dec.Owners(key)
		if len(a) != len(b) {
			t.Fatalf("owners differ for %q: %v vs %v", key, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("owners differ for %q: %v vs %v", key, a, b)
			}
		}
	}
}

func TestDecodeMapErrors(t *testing.T) {
	t.Parallel()
	for _, tokens := range [][]string{
		nil,
		{"v2"},
		{"v2", "1", "1", "-"},
		{"1", "2", "n1=a:1"},                 // pre-epoch (v1) payload: rejected, not misparsed
		{"v1", "1", "1", "-", "2", "n1=a:1"}, // unknown tag
		{"v2", "x", "1", "-", "2", "n1=a:1"},
		{"v2", "1", "x", "-", "2", "n1=a:1"},
		{"v2", "1", "1", "co=ord", "2", "n1=a:1"},
		{"v2", "1", "1", "-", "0", "n1=a:1"},
		{"v2", "1", "1", "-", "-3", "n1=a:1"},
		{"v2", "99", "2", "-", "2"}, // no members: installing would orphan every key
		{"v2", "1", "2", "-", "2", "noequals"},
		{"v2", "1", "2", "-", "2", "=addr"},
		{"v2", "1", "2", "-", "2", "id="},
		{"v2", "1", "2", "-", "2", "id=a=b"},
		{"v2", "1", "2", "-", "2", "id=a:1", "id=a:2"}, // duplicate member
	} {
		if _, err := DecodeMap(tokens); err == nil {
			t.Errorf("DecodeMap(%v) succeeded, want error", tokens)
		}
	}
}
