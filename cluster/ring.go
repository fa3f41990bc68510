// Package cluster turns the single-node server package into a sharded,
// replicated sketch cluster. A versioned cluster map with a
// consistent-hash ring assigns every key to N owner nodes; any node
// accepts any command, forwarding writes to the key's owners and
// answering distinct-count queries by scatter-gathering serialized
// sketches and merging them locally. Because ExaLogLog merging is
// commutative and idempotent (paper Section 1), replicas may be written
// redundantly and blobs re-sent at will — rebalancing after membership
// changes is just "push your copy to whoever owns it now".
//
// Wire-wise the cluster layers CLUSTER subcommands onto the server line
// protocol and is the keyspace the server's data verbs (PFADD … KEYS) act
// on, so any existing client pointed at any node sees one logical store.
package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// vnodesPerNode is the number of virtual nodes each member contributes
// to the ring. More virtual nodes smooth the key distribution at the
// cost of a larger sorted ring; 64 keeps the per-node share within a few
// percent of fair for small clusters.
const vnodesPerNode = 64

// ring is an immutable consistent-hash ring over a set of node IDs.
type ring struct {
	hashes []uint64 // sorted virtual-node hashes
	owners []string // owners[i] is the node owning hashes[i]
}

// hash64 hashes s with FNV-1a and a splitmix64 finalizer: plain FNV over
// short, similar strings ("n1#0", "n1#1", …) leaves the high bits
// correlated, which skews the ring badly; the finalizer restores
// avalanche.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newRing builds a ring from node IDs. IDs must be unique.
func newRing(ids []string) *ring {
	r := &ring{
		hashes: make([]uint64, 0, len(ids)*vnodesPerNode),
		owners: make([]string, 0, len(ids)*vnodesPerNode),
	}
	type vnode struct {
		h  uint64
		id string
	}
	vns := make([]vnode, 0, len(ids)*vnodesPerNode)
	for _, id := range ids {
		for i := 0; i < vnodesPerNode; i++ {
			vns = append(vns, vnode{hash64(fmt.Sprintf("%s#%d", id, i)), id})
		}
	}
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].h != vns[j].h {
			return vns[i].h < vns[j].h
		}
		return vns[i].id < vns[j].id // deterministic on (vanishingly rare) collisions
	})
	for _, v := range vns {
		r.hashes = append(r.hashes, v.h)
		r.owners = append(r.owners, v.id)
	}
	return r
}

// ownersOf returns up to n distinct node IDs owning key, walking
// clockwise from the key's hash. With fewer than n nodes, all nodes are
// returned. The first ID is the key's primary.
func (r *ring) ownersOf(key string, n int) []string {
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	return r.ownersAt(make([]string, 0, n), r.arcOf(key), n)
}

// arcOf returns the index of the virtual node whose arc key hashes into:
// the first at or past the key's hash, clockwise, wrapping to 0. Every
// key of one arc has the same owners, ownersAt(dst, arcOf(key), n). The
// ring must not be empty.
func (r *ring) arcOf(key string) int {
	h := hash64(key)
	if i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h }); i < len(r.hashes) {
		return i
	}
	return 0
}

// ownersAt appends to dst[:0] up to n distinct node IDs walking clockwise
// from the virtual node at index start: the owners of every key hashing
// into the arc that ends there. n is a replica factor, a handful at most,
// so out itself is the set of IDs seen.
func (r *ring) ownersAt(dst []string, start, n int) []string {
	out := dst[:0]
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		if id := r.owners[(start+i)%len(r.hashes)]; !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}
