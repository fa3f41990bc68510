package server

import (
	"encoding/base64"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"exaloglog/internal/core"
	"exaloglog/window"
)

// MultiClient talks to a fleet of sketch servers as one logical store:
// writes are routed to a shard by key hash, and distinct-count queries
// merge the per-shard sketches client-side — the cross-node aggregation
// pattern that sketch mergeability (paper Section 1) exists for. Because
// the union happens on serialized sketches, a key may also legitimately
// exist on several shards (e.g. regional writers); Count still returns
// the exact union estimate.
//
// A MultiClient is safe for concurrent use: the underlying Clients
// serialize commands per connection, so concurrent PFAdds to different
// shards proceed in parallel while same-shard commands queue.
//
// Note for migrators: MultiClient shards client-side, so every reader
// must know the full topology and pay the merge cost itself. The cluster
// package moves sharding, replication and scatter-gather aggregation
// server-side — clients talk to any one node — and is the recommended
// path for new deployments.
type MultiClient struct {
	clients []*Client
}

// DialMulti connects to all the given servers.
func DialMulti(addrs ...string) (*MultiClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("server: DialMulti needs at least one address")
	}
	mc := &MultiClient{}
	for _, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			mc.Close()
			return nil, fmt.Errorf("server: dial %s: %w", addr, err)
		}
		mc.clients = append(mc.clients, c)
	}
	return mc, nil
}

// Close terminates all connections.
func (mc *MultiClient) Close() error {
	var first error
	for _, c := range mc.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumShards returns the number of connected servers.
func (mc *MultiClient) NumShards() int { return len(mc.clients) }

// shardFor routes a key to a shard by FNV-1a hash.
func (mc *MultiClient) shardFor(key string) *Client {
	h := fnv.New32a()
	h.Write([]byte(key))
	return mc.clients[int(h.Sum32())%len(mc.clients)]
}

// PFAdd inserts elements into key on its home shard.
func (mc *MultiClient) PFAdd(key string, elements ...string) (bool, error) {
	return mc.shardFor(key).PFAdd(key, elements...)
}

// PFCount estimates the distinct count of the union of the given keys
// across all shards: every shard's sketch for every key is fetched with
// DUMP and merged locally. Missing keys contribute nothing. The DUMPs
// for all keys go to each shard as one pipelined batch and the shards
// are queried concurrently, so the query costs one round trip per
// shard instead of one per (shard, key) pair.
func (mc *MultiClient) PFCount(keys ...string) (float64, error) {
	batches := make([][]Result, len(mc.clients))
	errs := make([]error, len(mc.clients))
	var wg sync.WaitGroup
	for i, c := range mc.clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			p := c.Pipeline()
			for _, key := range keys {
				p.Dump(key)
			}
			batches[i], errs[i] = p.Exec()
		}(i, c)
	}
	wg.Wait()
	var acc *core.Hybrid
	for i, results := range batches {
		if errs[i] != nil {
			return 0, fmt.Errorf("server: shard %d: %w", i, errs[i])
		}
		for _, res := range results {
			if res.Err != nil {
				if errors.Is(res.Err, ErrNoSuchKey) {
					continue
				}
				return 0, fmt.Errorf("server: shard %d: %w", i, res.Err)
			}
			blob, err := base64.StdEncoding.DecodeString(res.Value)
			if err != nil {
				return 0, err
			}
			sk, err := core.HybridFromBinary(blob)
			if err != nil {
				return 0, err
			}
			if acc == nil {
				acc = sk
				continue
			}
			if err := acc.Merge(sk); err != nil {
				return 0, err
			}
		}
	}
	if acc == nil {
		return 0, nil
	}
	return acc.Estimate(), nil
}

// WAdd inserts elements observed at the unix-millisecond timestamp ts
// into the windowed key on its home shard; it returns how many
// elements were accepted.
func (mc *MultiClient) WAdd(key string, tsMillis int64, elements ...string) (int, error) {
	return mc.shardFor(key).WAdd(key, tsMillis, elements...)
}

// WCount estimates the distinct count the windowed key observed over
// the window ending at tsMillis (0: the newest timestamp any shard
// observed). Like PFCount it tolerates the key existing on several
// shards — every shard's ring is fetched with DUMP and merged
// slot-wise, so the union is exact at slice granularity.
func (mc *MultiClient) WCount(key string, win time.Duration, tsMillis int64) (float64, error) {
	blobs := make([][]byte, len(mc.clients))
	errs := make([]error, len(mc.clients))
	var wg sync.WaitGroup
	for i, c := range mc.clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			blob, err := c.Dump(key)
			if errors.Is(err, ErrNoSuchKey) {
				return
			}
			blobs[i], errs[i] = blob, err
		}(i, c)
	}
	wg.Wait()
	var acc *window.Counter
	for i, blob := range blobs {
		if errs[i] != nil {
			return 0, fmt.Errorf("server: shard %d: %w", i, errs[i])
		}
		if blob == nil {
			continue
		}
		if !window.IsSerialized(blob) {
			// A plain-sketch copy of the key: same ErrWrongType the
			// single-node and cluster paths report, not a decode error.
			return 0, fmt.Errorf("server: shard %d: key %q: %w", i, key, ErrWrongType)
		}
		c, err := window.FromBinary(blob)
		if err != nil {
			return 0, fmt.Errorf("server: shard %d: %w", i, err)
		}
		if acc == nil {
			acc = c
			continue
		}
		if err := acc.Merge(c); err != nil {
			return 0, fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	if acc == nil {
		return 0, nil
	}
	now := acc.Latest()
	if tsMillis != 0 {
		now = time.UnixMilli(tsMillis)
	}
	if now.IsZero() {
		return 0, nil
	}
	return acc.Estimate(now, win), nil
}

// Keys returns the union of all shards' keys, sorted and deduplicated.
func (mc *MultiClient) Keys() ([]string, error) {
	seen := make(map[string]struct{})
	for _, c := range mc.clients {
		keys, err := c.Keys()
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			seen[k] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Ping checks liveness of every shard.
func (mc *MultiClient) Ping() error {
	for i, c := range mc.clients {
		if err := c.Ping(); err != nil {
			return fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	return nil
}
