package graph

import "exaloglog/internal/hashing"

// The graph generator of the examples and the experiment harness. Its
// randomness comes from SplitMix64 seeded explicitly, so every run sees the
// same graph.

// PreferentialAttachment returns an undirected Barabási–Albert-style graph:
// each new node attaches to k endpoints sampled from the existing edge
// list, producing the heavy-tailed degree distribution of web and social
// graphs (the workloads HyperANF was designed for).
func PreferentialAttachment(n, k int, seed uint64) *Graph {
	g := NewGraph(n)
	if n == 0 {
		return g
	}
	state := seed
	// Endpoint pool: sampling uniformly from it is sampling nodes
	// proportionally to degree.
	pool := make([]int32, 0, 2*n*k)
	pool = append(pool, 0)
	for v := 1; v < n; v++ {
		attach := k
		if attach > v {
			attach = v
		}
		for j := 0; j < attach; j++ {
			w := pool[hashing.SplitMix64(&state)%uint64(len(pool))]
			g.AddUndirectedEdge(v, int(w))
			pool = append(pool, w)
		}
		pool = append(pool, int32(v))
	}
	return g
}
