package cluster

import (
	"encoding/base64"
	"errors"
	"slices"
	"strconv"
	"sync"

	"exaloglog/server"
)

// rebalanceReplans bounds how often one rebalance re-plans against a
// fresher map after a receiver's -STALE refusal before surfacing the
// error (each iteration adopts a strictly newer epoch, so the loop
// cannot cycle — the bound only caps churn during a membership storm).
const rebalanceReplans = 3

// rebalance reconciles this node's local sketches with the membership
// transition old→cur. It is delta-aware: a key is pushed only to
// owners it GAINED in the transition — owners that already held it
// under old are not re-sent — so a membership change costs messages
// proportional to the keys whose owner set actually changed, not
// O(keys×replicas). A key this node did not own under old — a stray
// copy, e.g. a write that landed here under a stale map, or a drain
// that previously failed half-way — is pushed in full to every owner
// under cur, which may never have seen it (drainStrays is this case
// alone: old == cur).
//
// Pushes travel over the streaming bulk-transfer transport (see
// transfer.go): one framed, resumable stream per gaining peer, with
// per-key CLUSTER ABSORB both as the small-push fast path and as the
// degraded path once a stream's retry budget is spent. Either way the
// receiver merges rather than replaces, so re-sending a blob an owner
// already holds is a no-op merge and rebalance stays idempotent — it
// can be rerun after any partial failure, and concurrent rebalances of
// different nodes cannot corrupt each other (the paper's commutative,
// idempotent merge is what makes the whole protocol trivially safe).
//
// Receivers are epoch-fenced: a peer whose map has already moved past
// cur refuses the stream with -STALE, and rebalance then adopts the
// refusing peers' maps and re-plans the SAME old→ transition against
// the newest (bounded by rebalanceReplans) — keys bound for a dead
// epoch are re-routed instead of lost or misdelivered.
//
// A node absent from cur (it is leaving) owns nothing, so rebalance
// drains it: every local sketch is pushed to its new owners and
// dropped locally once every push for that key succeeded.
func (n *Node) rebalance(old, cur *Map) error {
	stale, err := n.rebalanceOnce(old, cur)
	for replan := 0; replan < rebalanceReplans && len(stale) > 0; replan++ {
		// Whoever refused holds the map that superseded cur. Swap it in
		// without installAndRebalance: the re-plan below IS its rebalance.
		for _, addr := range stale {
			if m, err := n.peerMap(addr); err == nil {
				n.swapMap(m)
			}
		}
		next := n.currentMap()
		if !next.Newer(cur) {
			break // fence tripped but no newer map visible yet; surface the error
		}
		cur = next
		stale, err = n.rebalanceOnce(old, cur)
	}
	return err
}

// rebalanceOnce is one planning+push pass of rebalance against a fixed
// transition; see rebalance for the protocol it is part of. stale lists
// the peers that refused their stream with -STALE (err then wraps
// errXferStale once).
func (n *Node) rebalanceOnce(old, cur *Map) (stale []string, err error) {
	blobs := n.store.DumpAllTagged()
	byAddr := make(map[string][]server.KeyBlob)
	keep := make(map[string]bool, len(blobs))
	pushes := 0
	for key, tagged := range blobs {
		owners := cur.Owners(key)
		if len(owners) == 0 {
			keep[key] = true // ownerless key (degenerate map): never drop data
			continue
		}
		// oldOwners is non-nil only when this node owned the key under
		// old; then owners already present under old are skipped.
		var oldOwners []string
		if ids := old.ownerIDs(key); slices.Contains(ids, n.id) {
			oldOwners = ids
		}
		for _, o := range owners {
			if o.ID == n.id {
				keep[key] = true
				continue
			}
			if oldOwners != nil && slices.Contains(oldOwners, o.ID) {
				continue // delta: this owner held the key before the transition
			}
			byAddr[o.Addr] = append(byAddr[o.Addr], server.KeyBlob{Key: key, Blob: tagged.Blob, Deadline: tagged.Deadline})
			pushes++
		}
	}
	n.pushes.Add(uint64(pushes))
	errsByKey := make(map[string]error, len(blobs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for addr, items := range byAddr {
		wg.Add(1)
		go func(addr string, items []server.KeyBlob) {
			defer wg.Done()
			failed := n.streamTo(addr, cur.Epoch, items)
			if len(failed) == 0 {
				return
			}
			mu.Lock()
			refused := false
			for key, err := range failed {
				refused = refused || errors.Is(err, errXferStale)
				if errsByKey[key] == nil {
					errsByKey[key] = err
				}
			}
			if refused {
				stale = append(stale, addr)
			}
			mu.Unlock()
		}(addr, items)
	}
	wg.Wait()
	var errs []error
	for key, tagged := range blobs {
		if err := errsByKey[key]; err != nil {
			// A -STALE refusal fans out to every key of the refused
			// stream; it surfaces once, below. Other failures surface
			// per key.
			if !errors.Is(err, errXferStale) {
				errs = append(errs, err)
			}
			continue // don't drop a key we failed to hand off
		}
		if !keep[key] {
			// Conditional delete: a write that landed after the dump
			// was NOT in the pushed blob — keep the key as a stray and
			// let the next digest round's drain hand the fresh state off.
			n.store.DeleteIfUnchanged(key, tagged)
		}
	}
	if len(stale) > 0 {
		errs = append(errs, errXferStale)
	}
	return stale, errors.Join(errs...)
}

// absorbEach pushes items to addr one CLUSTER ABSORB per key — what
// streamTo does for pushes too small to amortize a stream's handshake,
// and degrades to. It returns the keys that failed.
func (n *Node) absorbEach(addr string, items []server.KeyBlob) map[string]error {
	var failed map[string]error
	for _, it := range items {
		b64 := base64.StdEncoding.EncodeToString(it.Blob)
		if _, err := n.peers.do(addr, "CLUSTER", "ABSORB", it.Key, b64, strconv.FormatInt(it.Deadline, 10)); err != nil {
			if failed == nil {
				failed = make(map[string]error)
			}
			failed[it.Key] = err
		}
	}
	return failed
}
