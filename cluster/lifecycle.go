package cluster

// Cluster-wide keyspace lifecycle: the EXPIRE / PEXPIRE / TTL / PERSIST
// verbs forwarded to every owner of a key, plus the internal CLUSTER
// LEXPIREAT / LDEADLINE / LPERSIST replication verbs they ride on.
//
// The coordinator computes the absolute unix-millisecond deadline ONCE
// (from its own store clock) and forwards that instant — never the
// duration — so every replica arms the exact same expiry no matter how
// long forwarding took or how skewed the arrival order was. Replicas
// then expire independently and deterministically: nothing about expiry
// is ever gossiped, the shared deadline is the whole protocol.

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"exaloglog/server"
)

// ExpireAt sets key's absolute expiry deadline (unix milliseconds) on
// every owner node; it reports whether any owner had the key.
// Re-sending is harmless (arming the same deadline twice is a no-op in
// effect), which makes the stale-map retry safe.
func (n *Node) ExpireAt(key string, deadlineMillis int64) (bool, error) {
	if err := validToken("key", key); err != nil {
		return false, err
	}
	if deadlineMillis <= 0 || deadlineMillis > server.MaxDeadlineMillis {
		return false, fmt.Errorf("cluster: deadline %d out of range", deadlineMillis)
	}
	return n.onOwners(key, func() bool { return n.store.ExpireAt(key, deadlineMillis) },
		"CLUSTER", "LEXPIREAT", key, strconv.FormatInt(deadlineMillis, 10))
}

// Deadline returns key's absolute expiry deadline in unix milliseconds
// (0 = none) as seen cluster-wide: every owner is asked, the key exists
// if any owner holds it, and the largest deadline wins — the same
// max-converges rule transferred blobs merge under, so a replica that
// briefly lags an EXPIRE does not make TTL flap downward.
func (n *Node) Deadline(key string) (deadlineMillis int64, ok bool, err error) {
	if err := validToken("key", key); err != nil {
		return 0, false, err
	}
	var mu sync.Mutex
	err = n.withStaleMapRetry(func(m *Map) error {
		deadlineMillis, ok = 0, false // a retry asks the new owners afresh
		return n.eachOwner(m.Owners(key), func(o Member) error {
			var dl int64
			found := false
			if o.ID == n.id {
				dl, found = n.store.DeadlineOf(key)
			} else {
				reply, err := n.peers.do(o.Addr, "CLUSTER", "LDEADLINE", key)
				if errors.Is(err, server.ErrNoSuchKey) {
					return nil // this owner does not hold the key: a miss, not a failure
				}
				if err != nil {
					return err
				}
				if dl, err = strconv.ParseInt(reply, 10, 64); err != nil {
					return err
				}
				found = true
			}
			mu.Lock()
			defer mu.Unlock()
			ok = ok || found
			deadlineMillis = max(deadlineMillis, dl)
			return nil
		})
	})
	if err != nil {
		return 0, false, err
	}
	return deadlineMillis, ok, nil
}

// Persist removes key's expiry deadline on every owner node; it reports
// whether any owner removed one. Clearing an already-cleared deadline
// is a no-op, so the stale-map retry is safe.
func (n *Node) Persist(key string) (bool, error) {
	if err := validToken("key", key); err != nil {
		return false, err
	}
	return n.onOwners(key, func() bool { return n.store.Persist(key) }, "CLUSTER", "LPERSIST", key)
}
