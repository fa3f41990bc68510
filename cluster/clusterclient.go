package cluster

// ClusterClient is the smart, single-hop client for a sketch cluster:
// it fetches the cluster map once (CLUSTER MAP), places keys on their
// owners locally by the map's rendezvous hashing, and sends each data
// command straight to an owner over a connection lent by its pool —
// no coordinator hop, so a routed op costs one RTT instead of two and
// no single node carries everyone's forwarding load.
//
// A stale map costs a hop, never an answer: every node serves every key,
// forwarding a write to the key's owners and gathering a read from them
// (sketches merge, so the reply is the same whichever node was reached),
// so an op routed by an old map is answered by the node it reached. A
// transport error fails the op over to the next replica and refetches
// the map (rate-limited and single-flight, so a thundering herd of
// stale clients issues one fetch). Every op carries a bounded failover
// budget, so a dead cluster degrades into an error instead of a
// livelock. The client joins every map it fetches into the one it holds
// (see Map), so a delayed old map can never regress its view.
//
// A ClusterClient is safe for concurrent use. Compare server.Client +
// a coordinator node: that path still works against any node (and is
// the only option for multi-key scatter-gathers through one
// connection), but pays the extra hop; see the README's "Smart
// clients" section for when to prefer which.

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exaloglog/server"
)

const (
	// failoverBudget bounds how many failover hops one op may take
	// before it fails.
	failoverBudget = 6
	// defaultMinRefetch rate-limits map refetches: within this window
	// after a fetch, further failovers do not fetch the map again.
	defaultMinRefetch = 25 * time.Millisecond
)

// ClusterClient routes data commands straight to owner nodes. Create
// one with DialCluster, share it between goroutines, Close when done.
type ClusterClient struct {
	peers *pool
	seeds []string

	mu   sync.RWMutex
	cmap *Map

	// fetchMu single-flights map refetches; lastFetch (guarded by it)
	// rate-limits them to one per minRefetch window.
	fetchMu    sync.Mutex
	lastFetch  time.Time
	minRefetch time.Duration

	refetches atomic.Uint64 // map refetches performed
	failovers atomic.Uint64 // transport-error replica failovers
}

// ClientStats is a snapshot of a ClusterClient's routing counters.
type ClientStats struct {
	Moved        uint64 // always 0: nodes forward, they never redirect
	MapRefetches uint64 // map refetches performed
	Failovers    uint64 // transport-error replica failovers
}

// DialCluster connects to a cluster through any reachable seed node
// and fetches the initial map. The seeds are also the fallback for map
// refetches when every known member is unreachable.
func DialCluster(seeds ...string) (*ClusterClient, error) {
	return dialCluster(dialTCP, seeds...)
}

// dialCluster is DialCluster over the transport connect.
func dialCluster(connect dialer, seeds ...string) (*ClusterClient, error) {
	if len(seeds) == 0 {
		return nil, errors.New("cluster: DialCluster needs at least one seed address")
	}
	cc := &ClusterClient{
		peers:      newPool(connect),
		seeds:      append([]string(nil), seeds...),
		minRefetch: defaultMinRefetch,
	}
	m, err := cc.fetchMapFrom(cc.seeds)
	if err != nil {
		cc.peers.closeAll()
		return nil, fmt.Errorf("cluster: initial map fetch: %w", err)
	}
	cc.cmap = m
	return cc, nil
}

// Close closes every pooled connection.
func (cc *ClusterClient) Close() {
	cc.peers.closeAll()
}

// Map returns the client's current view of the cluster map.
func (cc *ClusterClient) Map() *Map {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.cmap
}

// Stats returns a snapshot of the client's routing counters.
func (cc *ClusterClient) Stats() ClientStats {
	return ClientStats{
		MapRefetches: cc.refetches.Load(),
		Failovers:    cc.failovers.Load(),
	}
}

// install joins m into the current map — forward-only, so a delayed
// fetch result can never regress the view.
func (cc *ClusterClient) install(m *Map) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.cmap = cc.cmap.join(m)
}

// fetchMapFrom asks each address in turn for CLUSTER MAP and returns
// the first successfully decoded map.
func (cc *ClusterClient) fetchMapFrom(addrs []string) (*Map, error) {
	var errs []error
	for _, addr := range addrs {
		m, err := cc.peers.fetchMap(addr)
		if err == nil {
			return m, nil
		}
		errs = append(errs, err)
	}
	return nil, errors.Join(errs...)
}

// refetchMap refreshes the map because an op saw evidence (a dead
// owner) that the view of height seen is stale. Single-flight:
// concurrent callers serialize on fetchMu and all but the first find
// the work already done. Rate-limited: within minRefetch of the last
// fetch it is a no-op — a misrouted op is still forwarded by the node
// it reaches in the meantime. Best-effort: a failed fetch leaves the
// current map in place.
func (cc *ClusterClient) refetchMap(seen uint64) {
	cc.fetchMu.Lock()
	defer cc.fetchMu.Unlock()
	if cc.Map().Height() > seen {
		return // another caller already advanced past the stale view
	}
	if time.Since(cc.lastFetch) < cc.minRefetch {
		return
	}
	cc.lastFetch = time.Now()
	// Prefer current members (they hold the freshest map), fall back to
	// the dial seeds for the case where every known member is gone.
	members := cc.Map().Members()
	addrs := make([]string, 0, len(members)+len(cc.seeds))
	tried := make(map[string]bool, len(members)+len(cc.seeds))
	for _, mem := range members {
		if !tried[mem.Addr] {
			tried[mem.Addr] = true
			addrs = append(addrs, mem.Addr)
		}
	}
	for _, s := range cc.seeds {
		if !tried[s] {
			tried[s] = true
			addrs = append(addrs, s)
		}
	}
	m, err := cc.fetchMapFrom(addrs)
	if err != nil {
		return
	}
	cc.refetches.Add(1)
	cc.install(m)
}

// run sends one command for key to an owner and returns its reply. Any
// answer, OK or an error reply, ends the op; a transport error fails it
// over to the next replica and refetches the map, at most failoverBudget
// times before the op fails.
func (cc *ClusterClient) run(key string, parts ...string) (string, error) {
	for failover := 0; ; failover++ {
		m := cc.Map()
		owners := m.Owners(key)
		if len(owners) == 0 {
			return "", errors.New("cluster: empty cluster map")
		}
		addr := owners[failover%len(owners)].Addr
		reply, err := cc.peers.do(addr, parts...)
		if err == nil || server.IsReplyErr(err) {
			return reply, err
		}
		// The owner is likely gone for everyone; a fresh map stops this
		// op and later ones from aiming at it at all.
		cc.refetchMap(m.Height())
		if failover == failoverBudget {
			return "", fmt.Errorf("cluster: %s unreachable: %w", addr, err)
		}
		cc.failovers.Add(1)
	}
}

// Add inserts elements into key, routed directly to an owner; it
// reports whether the owner's sketch changed.
func (cc *ClusterClient) Add(key string, elements ...string) (bool, error) {
	if err := validWrite("Add", key, elements); err != nil {
		return false, err
	}
	reply, err := cc.run(key, append(append(make([]string, 0, 2+len(elements)), "PFADD", key), elements...)...)
	if err != nil {
		return false, err
	}
	return reply == "1", nil
}

// Count returns the estimated distinct count of key, routed directly
// to an owner (which scatter-gathers the replica union server-side).
func (cc *ClusterClient) Count(key string) (int64, error) {
	if err := validToken("key", key); err != nil {
		return 0, err
	}
	reply, err := cc.run(key, "PFCOUNT", key)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(reply, 10, 64)
}

// WAdd inserts elements observed at the unix-millisecond timestamp ts
// into the windowed key, routed directly to an owner; it returns how
// many elements were accepted.
func (cc *ClusterClient) WAdd(key string, tsMillis int64, elements ...string) (int, error) {
	if err := validWrite("WAdd", key, elements); err != nil {
		return 0, err
	}
	parts := make([]string, 0, 3+len(elements))
	parts = append(parts, "WADD", key, strconv.FormatInt(tsMillis, 10))
	reply, err := cc.run(key, append(parts, elements...)...)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(reply)
}

// WCount returns the estimated distinct count the windowed key
// observed over the window ending at its newest timestamp.
func (cc *ClusterClient) WCount(key string, win time.Duration) (int64, error) {
	if err := validToken("key", key); err != nil {
		return 0, err
	}
	reply, err := cc.run(key, "WCOUNT", key, win.String())
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(reply, 10, 64)
}
