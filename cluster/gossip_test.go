package cluster

import (
	"strconv"
	"strings"
	"testing"
)

// TestDigestRoundTrip pins the gossip wire format: encode → decode →
// encode is byte-stable, and the suspicion mark survives.
func TestDigestRoundTrip(t *testing.T) {
	t.Parallel()
	d := &digest{
		Sender:    "n1",
		MapDigest: 0x0123456789abcdef,
		Entries: []digestEntry{
			{ID: "n1", HB: 41},
			{ID: "n2", HB: 39, Suspect: true},
			{ID: "n3", HB: 0},
		},
	}
	enc := d.encode()
	got, err := decodeDigest(strings.Fields(enc))
	if err != nil {
		t.Fatalf("decode %q: %v", enc, err)
	}
	if got.encode() != enc {
		t.Fatalf("round trip not stable: %q → %q", enc, got.encode())
	}
	if !got.Entries[1].Suspect || got.Entries[0].Suspect {
		t.Errorf("suspicion bits lost in %q", enc)
	}
	if got.MapDigest != d.MapDigest {
		t.Errorf("map digest %x came back as %x", d.MapDigest, got.MapDigest)
	}
	// '~' is an ordinary id character, in the sender and in entries.
	if got, err := decodeDigest(strings.Fields("g2 ~n1 1 ~x=1!")); err != nil || !got.Entries[0].Suspect {
		t.Errorf("'~'-prefixed ids: %+v, %v", got, err)
	}
}

// TestDigestDecodeRejects enumerates hostile payload shapes that must
// come back as errors, never panics or accepted garbage.
func TestDigestDecodeRejects(t *testing.T) {
	t.Parallel()
	cases := []string{
		"",
		"g2",
		"g2 n1",                           // missing map digest
		"g1 n1 1 1 -",                     // the retired tag
		"v4 n1 1",                         // wrong tag (a map payload)
		"g2 bad=id 1",                     // '=' in sender
		"g2 n1 xyz",                       // non-hex map digest
		"g2 n1 10000000000000000",         // map digest past 64 bits
		"g2 n1 1 n2",                      // entry without '='
		"g2 n1 1 n2=abc",                  // non-numeric heartbeat
		"g2 n1 1 n2=1! n2=2",              // duplicate entry
		"g2 n1 1 n2=!",                    // suspicion mark with no heartbeat
		"g2 n1 1 n2=18446744073709551616", // uint64 overflow
		"g2 n1 1 ~",                       // '~'-prefixed entries follow the same rules: no '='
		"g2 n1 1 ~x",                      // no '='
		"g2 n1 1 ~x=abc",                  // non-numeric heartbeat
		"g2 n1 1 ~x=1 ~x=2",               // duplicate entry
	}
	for _, payload := range cases {
		if d, err := decodeDigest(strings.Fields(payload)); err == nil {
			t.Errorf("decodeDigest(%q) accepted: %+v", payload, d)
		}
	}
}

// TestDigestDecodeCaps: a hostile digest cannot make a node allocate
// beyond the shared wire caps.
func TestDigestDecodeCaps(t *testing.T) {
	t.Parallel()
	tokens := []string{"g2", "n1", "1"}
	for i := 0; i <= maxWireMembers; i++ {
		tokens = append(tokens, "m"+strconv.Itoa(i)+"=1")
	}
	if _, err := decodeDigest(tokens); err == nil {
		t.Fatalf("digest with %d entries accepted (limit %d)", maxWireMembers+1, maxWireMembers)
	}
	huge := []string{"g2", "n1", "1", "x=" + strings.Repeat("9", maxWireBytes)}
	if _, err := decodeDigest(huge); err == nil {
		t.Fatal("oversized digest accepted")
	}
}

// FuzzGossipDecode mirrors FuzzMapDecode for the gossip payload: no
// input may panic the decoder, and anything it accepts must re-encode
// to a byte-stable, re-decodable form — two nodes must never disagree
// about one digest.
func FuzzGossipDecode(f *testing.F) {
	f.Add("g2 n1 0123456789abcdef n1=41 n2=39! n3=0")
	f.Add("g2 n1 ffffffffffffffff x=18446744073709551615!")
	f.Add("g2 n9 0")
	f.Add("g1 n1 3 7 n2 n1=41 n2=39! n3=0")
	f.Add("v4 2 n1=a=1")
	f.Add("")
	f.Add("g2 n1 1 a=1! a=2")
	f.Add("g2 n1 1 a=1!!")
	f.Add("g2 n1 abc n1=41 n3=0 ~n4=3 ~n5=9")
	f.Add("g2 n1 1 ~a=1 b=2")
	f.Add("g2 n1 1 ~~a=1")
	f.Fuzz(func(t *testing.T, payload string) {
		tokens := strings.Fields(payload)
		d, err := decodeDigest(tokens)
		if err != nil {
			return // rejected cleanly
		}
		if !validID(d.Sender) {
			t.Fatalf("decodeDigest(%q) accepted invalid sender %q", payload, d.Sender)
		}
		if len(d.Entries) > maxWireMembers {
			t.Fatalf("decodeDigest(%q) exceeded the entry cap", payload)
		}
		enc := d.encode()
		d2, err := decodeDigest(strings.Fields(enc))
		if err != nil {
			t.Fatalf("re-decode of %q (from %q) failed: %v", enc, payload, err)
		}
		if d2.encode() != enc {
			t.Fatalf("encode not stable: %q → %q", enc, d2.encode())
		}
	})
}

// TestGossipWireExchange drives one CLUSTER GOSSIP round trip over the
// real protocol: the reply must be the receiver's digest, and the
// receiver must have recorded the pushed heartbeats.
func TestGossipWireExchange(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 2, replicas: 1}).running()
	// Let each node establish detector state.
	nodes[0].Gossip()
	nodes[1].Gossip()

	d := &digest{
		Sender:    nodes[0].ID(),
		MapDigest: nodes[0].Map().Digest(),
		Entries:   []digestEntry{{ID: nodes[0].ID(), HB: 99}},
	}
	reply, err := nodes[0].peers.do(nodes[1].Addr(),
		append([]string{"CLUSTER", "GOSSIP"}, strings.Fields(d.encode())...)...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeDigest(strings.Fields(reply))
	if err != nil {
		t.Fatalf("reply %q is not a digest: %v", reply, err)
	}
	if got.Sender != nodes[1].ID() {
		t.Errorf("reply digest sender %q, want %q", got.Sender, nodes[1].ID())
	}
	_, health := nodes[1].Health()
	for _, mh := range health {
		if mh.ID == nodes[0].ID() && mh.HB != 99 {
			t.Errorf("receiver recorded hb=%d for %s, want 99", mh.HB, nodes[0].ID())
		}
	}
}

// TestHealthReportsSuspects: the detector's view is observable — after
// rounds with an unreachable peer, Health and CLUSTER HEALTH both show
// the suspicion (unit-level companion to the harness chaos tests).
func TestHealthReportsSuspects(t *testing.T) {
	t.Parallel()
	nodes := newHarness(t, harnessOpts{nodes: 2, replicas: 1}).running()
	nodes[0].gsp.mu.Lock()
	nodes[0].gsp.suspectAfter = 2
	nodes[0].gsp.mu.Unlock()
	nodes[1].Close() // silence n2 without any LEAVE
	for i := 0; i < 4; i++ {
		nodes[0].Gossip()
	}
	_, health := nodes[0].Health()
	found := false
	for _, mh := range health {
		if mh.ID == nodes[1].ID() {
			found = true
			if !mh.Suspect || mh.Suspectors < 1 || mh.SinceHeard < 2 {
				t.Errorf("health for silent peer = %+v, want suspect", mh)
			}
		}
	}
	if !found {
		t.Fatal("silent peer missing from health report")
	}
	// No eviction: quorum of a 2-node map is 2 and only n1 suspects.
	if !nodes[0].Map().Has(nodes[1].ID()) {
		t.Error("a lone suspecter evicted its only peer — quorum violated")
	}
}
