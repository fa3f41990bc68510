package graph

import (
	"math"

	"exaloglog/internal/hashing"
)

// Deterministic graph fixtures of the tests. All randomness comes from
// SplitMix64 seeded explicitly, so every run sees the same graph.

// Path returns the undirected path graph 0 — 1 — ... — n-1.
func Path(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddUndirectedEdge(i, i+1)
	}
	return g
}

// Cycle returns the undirected cycle graph on n nodes.
func Cycle(n int) *Graph {
	g := Path(n)
	if n > 2 {
		g.AddUndirectedEdge(n-1, 0)
	}
	return g
}

// Star returns the undirected star graph: node 0 connected to 1..n-1.
func Star(n int) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddUndirectedEdge(0, i)
	}
	return g
}

// Random returns an undirected Erdős–Rényi-style graph with n nodes and
// approximately edges edges, drawn deterministically from seed.
func Random(n, edges int, seed uint64) *Graph {
	g := NewGraph(n)
	state := seed
	for e := 0; e < edges; e++ {
		u := int(hashing.SplitMix64(&state) % uint64(n))
		v := int(hashing.SplitMix64(&state) % uint64(n))
		if u != v {
			g.AddUndirectedEdge(u, v)
		}
	}
	return g
}

// numEdges returns the number of directed edges of g.
func numEdges(g *Graph) int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total
}

// relativeError returns max_r |approx.N(r) - exact(r)| / exact(r) over the
// overlapping radius range.
func relativeError(approx *Result, exact []float64) float64 {
	worst := 0.0
	n := min(len(approx.N), len(exact))
	for r := 0; r < n; r++ {
		if exact[r] == 0 {
			continue
		}
		worst = max(worst, math.Abs(approx.N[r]-exact[r])/exact[r])
	}
	return worst
}
