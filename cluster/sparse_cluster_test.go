package cluster

// The sparse→dense hybrid value under replication: the mode of a key is a
// function of its token set alone, so however a replica came by its state —
// forwarded adds, a rebalance stream, a drain, a snapshot reload — it must
// hold the very bytes every other owner holds.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"exaloglog"
	"exaloglog/internal/core"
)

// TestMixedSparseDenseKeyspaceConverges replicates a keyspace that straddles
// break-even (the encoded tokens against the 3584-byte register array of the
// test precision: about 7500 tokens, which some 11 000 elements make, a
// hundred more or fewer from key to key), moves it through a join,
// a leave and a crash-restart from a snapshot with writes in between, and
// then holds the cluster to its oracle: every owner's blob is byte-identical
// and is the canonical blob of a reference hybrid fed the same elements,
// every count equals a reference exaloglog.Sketch, and a digest round on
// each node finds nothing to repair.
func TestMixedSparseDenseKeyspaceConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("join + leave + restart fixture skipped in -short")
	}
	h := newHarness(t, 2, 2)
	const be = 11000
	cards := []int{1, 2, 16, 33, be / 30, be / 3, be - 600, be - 100, be, be + 100, be + 600, 2 * be}
	type key struct {
		name string
		els  []string
	}
	var keys []key
	for i := 0; i < 3*len(cards); i++ {
		k := key{name: fmt.Sprintf("mix-%02d", i), els: make([]string, cards[i%len(cards)])}
		for j := range k.els {
			k.els[j] = fmt.Sprintf("%s-el-%d", k.name, j)
		}
		keys = append(keys, k)
	}
	// write sends els to key through node id: one call for even keys; for
	// odd ones calls of one or of seven elements — after one call for all
	// but the last 60 — so that replicas see bulk merges and single inserts
	// alike, on either side of break-even.
	write := func(id string, i int, els []string) {
		t.Helper()
		step := len(els)
		if i%2 == 1 {
			step = 1 + 6*(i%4/2)
		}
		for len(els) > 0 {
			n := min(step, len(els))
			if i%2 == 1 && len(els) > 60 {
				n = len(els) - 60
			}
			if _, err := h.node(id).Add(keys[i].name, els[:n]...); err != nil {
				t.Fatal(err)
			}
			els = els[n:]
		}
	}
	third := func(k key, part int) []string {
		return k.els[len(k.els)*part/3 : len(k.els)*(part+1)/3]
	}

	for i, k := range keys {
		write([]string{"n1", "n2"}[i%2], i, third(k, 0))
	}
	joiner := h.start("n3", "127.0.0.1:0")
	if err := joiner.Join(h.addr("n1")); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		write([]string{"n3", "n1", "n2"}[i%3], i, third(k, 1))
	}
	if err := joiner.Leave(); err != nil {
		t.Fatal(err)
	}
	h.crash("n3")
	h.save("n2")
	h.crash("n2")
	h.restart("n2")
	h.converge(5 * time.Second)
	for i, k := range keys {
		write([]string{"n2", "n1"}[i%2], i, third(k, 2))
	}

	for _, n := range h.running() {
		_, before := n.DigestSyncStats()
		if err := n.DigestSync(); err != nil {
			t.Fatal(err)
		}
		if _, after := n.DigestSyncStats(); after != before {
			t.Errorf("%s: a digest round repaired %d keys on a converged cluster", n.ID(), after-before)
		}
	}
	if fallbacks := sumTransferStats(h.running()).FallbackKeys; fallbacks != 0 {
		t.Errorf("%d keys fell back from the transfer stream to per-key ABSORB", fallbacks)
	}
	sparse, dense := 0, 0
	for _, k := range keys {
		ref := exaloglog.New(testP)
		want, err := core.NewHybrid(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range k.els {
			ref.AddString(el)
			want.AddString(el)
		}
		wantBlob, _ := want.MarshalBinary()
		if want.IsSparse() {
			sparse++
		} else {
			dense++
		}
		for _, n := range h.running() {
			blob, ok := n.Store().Dump(k.name)
			if !ok {
				t.Errorf("%s: %s holds no copy", k.name, n.ID())
				continue
			}
			if !bytes.Equal(blob, wantBlob) {
				t.Errorf("%s (%d elements): %s holds %d bytes (token blob %v), the reference %d bytes (token blob %v)",
					k.name, len(k.els), n.ID(), len(blob), core.IsTokenBlob(blob), len(wantBlob), core.IsTokenBlob(wantBlob))
			}
			if got := mustCount(t, n, k.name); got != ref.Estimate() {
				t.Errorf("%s via %s: count %v, reference sketch %v", k.name, n.ID(), got, ref.Estimate())
			}
		}
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("keyspace is not mixed: %d sparse, %d dense keys", sparse, dense)
	}
	// A union across modes, gathered from both owners of every key.
	union := exaloglog.New(testP)
	var names []string
	for _, k := range keys[:len(cards)] {
		names = append(names, k.name)
		for _, el := range k.els {
			union.AddString(el)
		}
	}
	if got := mustCount(t, h.node("n1"), names...); got != union.Estimate() {
		t.Errorf("union of %d mixed keys: count %v, reference sketch %v", len(names), got, union.Estimate())
	}
}
