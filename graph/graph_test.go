package graph

import (
	"math"
	"testing"

	"exaloglog/internal/core"
)

var testCfg = core.Config{T: 2, D: 20, P: 10}

func TestExactNeighborhoodPath(t *testing.T) {
	// Path on 4 nodes: N(0)=4, N(1)=4+2·3=10? No — ordered pairs within
	// distance r. Distances: d(0,1)=1 … Enumerate: r=1 adds 6 ordered
	// adjacent pairs → 10; r=2 adds (0,2),(2,0),(1,3),(3,1) → 14; r=3
	// adds (0,3),(3,0) → 16 = n².
	g := Path(4)
	got := ExactNeighborhood(g, 0)
	want := []float64{4, 10, 14, 16}
	if len(got) != len(want) {
		t.Fatalf("ExactNeighborhood = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExactNeighborhood = %v, want %v", got, want)
		}
	}
}

func TestExactNeighborhoodStar(t *testing.T) {
	// Star on 5 nodes: r=1 adds 8 (center↔leaves); r=2 connects all.
	got := ExactNeighborhood(Star(5), 0)
	want := []float64{5, 13, 25}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("ExactNeighborhood = %v, want %v", got, want)
		}
	}
}

func TestExactNeighborhoodDirected(t *testing.T) {
	// Directed chain 0→1→2: reachability is asymmetric.
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	got := ExactNeighborhood(g, 0)
	// r=0: 3; r=1: +(0,1),(1,2) = 5; r=2: +(0,2) = 6.
	want := []float64{3, 5, 6}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("ExactNeighborhood = %v, want %v", got, want)
		}
	}
}

func TestApproxMatchesExactSmall(t *testing.T) {
	// On small structured graphs with p=10 the summed estimates are
	// within a few percent of the exact neighborhood function.
	for name, g := range map[string]*Graph{
		"path":  Path(50),
		"cycle": Cycle(60),
		"star":  Star(40),
	} {
		exact := ExactNeighborhood(g, 0)
		res, err := ApproxNeighborhood(g, testCfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("%s: did not converge", name)
		}
		if e := relativeError(res, exact); e > 0.08 {
			t.Errorf("%s: relative error %.1f%% too high", name, 100*e)
		}
		// Final totals must agree: every pair eventually reachable.
		gotFinal := res.N[len(res.N)-1]
		wantFinal := exact[len(exact)-1]
		if math.Abs(gotFinal-wantFinal)/wantFinal > 0.08 {
			t.Errorf("%s: final N %.0f, want %.0f", name, gotFinal, wantFinal)
		}
	}
}

func TestApproxRandomGraph(t *testing.T) {
	g := Random(300, 900, 7)
	exact := ExactNeighborhood(g, 0)
	res, err := ApproxNeighborhood(g, testCfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := relativeError(res, exact); e > 0.08 {
		t.Errorf("relative error %.1f%% too high", 100*e)
	}
}

func TestEffectiveDiameter(t *testing.T) {
	// Star graph: everything within distance 2, most pairs at distance 2.
	res, err := ApproxNeighborhood(Star(100), testCfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := res.EffectiveDiameter(0.9)
	if d < 1 || d > 2 {
		t.Errorf("star effective diameter %.2f, want in [1, 2]", d)
	}
	// Path graph on n nodes: 90 % of pairs within ~0.9·n hops — just
	// check it is large, unlike the star.
	resPath, err := ApproxNeighborhood(Path(100), testCfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dp := resPath.EffectiveDiameter(0.9); dp < 20 {
		t.Errorf("path effective diameter %.2f unexpectedly small", dp)
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two disconnected edges: N converges to 8 (two 2-node cliques:
	// 4 + 4 ordered pairs).
	g := NewGraph(4)
	g.AddUndirectedEdge(0, 1)
	g.AddUndirectedEdge(2, 3)
	res, err := ApproxNeighborhood(g, testCfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("disconnected graph did not converge")
	}
	final := res.N[len(res.N)-1]
	if math.Abs(final-8) > 1 {
		t.Errorf("final N %.1f, want ≈8", final)
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	res, err := ApproxNeighborhood(NewGraph(0), testCfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.N[0] != 0 {
		t.Errorf("empty graph result %+v", res)
	}
	res, err = ApproxNeighborhood(NewGraph(1), testCfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.N[len(res.N)-1]-1) > 0.1 {
		t.Errorf("single node final N %.2f, want 1", res.N[len(res.N)-1])
	}
}

func TestMaxIterationsCap(t *testing.T) {
	res, err := ApproxNeighborhood(Path(100), testCfg, Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("capped run reported convergence")
	}
	if res.Iterations != 3 {
		t.Errorf("Iterations = %d, want 3", res.Iterations)
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := ApproxNeighborhood(Path(4), core.Config{T: -1}, Options{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGenerators(t *testing.T) {
	if g := Random(100, 300, 1); g.NumNodes() != 100 || numEdges(g) == 0 {
		t.Error("Random generator produced no edges")
	}
	// Determinism.
	a, b := Random(50, 100, 9), Random(50, 100, 9)
	if numEdges(a) != numEdges(b) {
		t.Error("Random not deterministic")
	}
	pa := PreferentialAttachment(200, 2, 3)
	if pa.NumNodes() != 200 {
		t.Errorf("PA nodes = %d", pa.NumNodes())
	}
	// The PA graph must be connected: final exact N equals n².
	exact := ExactNeighborhood(pa, 0)
	if got := exact[len(exact)-1]; got != 200*200 {
		t.Errorf("PA graph not connected: final N = %.0f", got)
	}
	// Degree skew: node 0 (oldest) should have above-average degree.
	if len(pa.adj[0]) <= 2 {
		t.Errorf("PA oldest node degree %d, expected hub behavior", len(pa.adj[0]))
	}
}
