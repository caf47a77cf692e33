package graphx

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/specdag/specdag/internal/xrand"
)

// clique adds a complete graph over the given nodes with unit weights.
func clique(g *Graph, nodes []int) {
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			g.AddEdge(nodes[i], nodes[j], 1)
		}
	}
}

// twoCliques returns two 5-cliques joined by a single bridge edge.
func twoCliques() *Graph {
	g := NewGraph()
	clique(g, []int{0, 1, 2, 3, 4})
	clique(g, []int{5, 6, 7, 8, 9})
	g.AddEdge(4, 5, 1)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2, 3)
	g.AddEdge(1, 2, 2) // accumulates
	g.AddEdge(2, 3, 1)
	g.AddNode(7)

	if got := g.Weight(1, 2); got != 5 {
		t.Fatalf("Weight(1,2) = %v, want 5", got)
	}
	if got := g.Weight(2, 1); got != 5 {
		t.Fatalf("undirected symmetry broken: %v", got)
	}
	if got := g.Degree(1); got != 5 {
		t.Fatalf("Degree(1) = %v, want 5", got)
	}
	if got := g.Degree(2); got != 6 {
		t.Fatalf("Degree(2) = %v, want 6", got)
	}
	if got := g.TotalWeight(); got != 6 {
		t.Fatalf("TotalWeight = %v, want 6", got)
	}
	nodes := g.Nodes()
	want := []int{1, 2, 3, 7}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
	if nb := g.Neighbors(2); len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Fatalf("Neighbors(2) = %v", nb)
	}
}

func TestSelfLoopDegree(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 1, 2)
	if got := g.Degree(1); got != 4 {
		t.Fatalf("self-loop degree = %v, want 4", got)
	}
	if got := g.TotalWeight(); got != 2 {
		t.Fatalf("self-loop total weight = %v, want 2", got)
	}
}

func TestModularityTwoCliques(t *testing.T) {
	g := twoCliques()
	good := map[int]int{}
	for u := 0; u <= 4; u++ {
		good[u] = 0
	}
	for u := 5; u <= 9; u++ {
		good[u] = 1
	}
	qGood := Modularity(g, good)

	all := map[int]int{}
	for u := 0; u <= 9; u++ {
		all[u] = 0
	}
	qAll := Modularity(g, all)

	if qGood <= 0.3 {
		t.Fatalf("two-clique partition should have high modularity, got %v", qGood)
	}
	if qAll != 0 {
		// Single community: Q = Σin/m − (Σdeg/2m)^2 = 1 − 1 = 0.
		t.Fatalf("single-community modularity should be 0, got %v", qAll)
	}
	if qGood <= qAll {
		t.Fatal("correct partition must beat the trivial one")
	}
}

func TestModularityKnownValue(t *testing.T) {
	// Two disconnected edges: perfect 2-community partition.
	// Q = Σ_c [in_c/m - (deg_c/2m)^2] = 2*(1/2 - (2/4)^2) = 1/2.
	g := NewGraph()
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	partition := map[int]int{0: 0, 1: 0, 2: 1, 3: 1}
	if got := Modularity(g, partition); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("modularity = %v, want 0.5", got)
	}
}

// TestModularityIsOneFloat: Q is reduced in community order, not map order,
// so repeated calls return the same float64 to the last bit (the experiment
// goldens compare fig5's modularity with == across worker counts).
func TestModularityIsOneFloat(t *testing.T) {
	g := NewGraph()
	part := map[int]int{}
	for u := 0; u < 60; u++ {
		part[u] = u % 7
		g.AddEdge(u, (u+7)%60, float64(1+u%3))
		g.AddEdge(u, (u+1)%60, 1)
	}
	want := Modularity(g, part)
	for i := 0; i < 200; i++ {
		if got := Modularity(g, part); got != want {
			t.Fatalf("call %d: Q = %v, first call %v", i, got, want)
		}
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	if got := Modularity(NewGraph(), nil); got != 0 {
		t.Fatalf("empty graph modularity = %v, want 0", got)
	}
}

func TestModularityBoundsQuick(t *testing.T) {
	f := func(seed int64, n uint8, extra uint8) bool {
		rng := xrand.New(seed)
		nodes := int(n%20) + 2
		g := NewGraph()
		for i := 0; i < nodes; i++ {
			g.AddNode(i)
		}
		edges := int(extra%64) + 1
		for e := 0; e < edges; e++ {
			g.AddEdge(rng.Intn(nodes), rng.Intn(nodes), 1+rng.Float64())
		}
		partition := map[int]int{}
		k := rng.Intn(nodes) + 1
		for i := 0; i < nodes; i++ {
			partition[i] = rng.Intn(k)
		}
		q := Modularity(g, partition)
		return q >= -0.5-1e-9 && q <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLouvainTwoCliques(t *testing.T) {
	g := twoCliques()
	part := Louvain(g, xrand.New(1))
	if got := NumCommunities(part); got != 2 {
		t.Fatalf("Louvain found %d communities, want 2 (partition %v)", got, part)
	}
	// All members of each clique must share a community.
	for u := 1; u <= 4; u++ {
		if part[u] != part[0] {
			t.Fatalf("clique 1 split: %v", part)
		}
	}
	for u := 6; u <= 9; u++ {
		if part[u] != part[5] {
			t.Fatalf("clique 2 split: %v", part)
		}
	}
	if part[0] == part[5] {
		t.Fatalf("cliques merged: %v", part)
	}
}

func TestLouvainRingOfCliques(t *testing.T) {
	// Four 4-cliques in a ring — the classic Louvain benchmark.
	g := NewGraph()
	for c := 0; c < 4; c++ {
		base := c * 4
		clique(g, []int{base, base + 1, base + 2, base + 3})
	}
	for c := 0; c < 4; c++ {
		g.AddEdge(c*4+3, ((c+1)%4)*4, 1)
	}
	part := Louvain(g, xrand.New(2))
	if got := NumCommunities(part); got != 4 {
		t.Fatalf("found %d communities, want 4: %v", got, part)
	}
	q := Modularity(g, part)
	if q < 0.5 {
		t.Fatalf("ring-of-cliques modularity %v, want >= 0.5", q)
	}
}

func TestLouvainDeterministicWithNilRNG(t *testing.T) {
	a := Louvain(twoCliques(), nil)
	b := Louvain(twoCliques(), nil)
	for u, c := range a {
		if b[u] != c {
			t.Fatal("Louvain with nil rng should be deterministic")
		}
	}
}

func TestLouvainPartitionCoversAllNodes(t *testing.T) {
	f := func(seed int64, n uint8, extra uint8) bool {
		rng := xrand.New(seed)
		nodes := int(n%25) + 1
		g := NewGraph()
		for i := 0; i < nodes; i++ {
			g.AddNode(i)
		}
		edges := int(extra % 50)
		for e := 0; e < edges; e++ {
			g.AddEdge(rng.Intn(nodes), rng.Intn(nodes), 1)
		}
		part := Louvain(g, rng)
		if len(part) != nodes {
			return false
		}
		// Community IDs must be dense: 0..k-1.
		k := NumCommunities(part)
		for _, c := range part {
			if c < 0 || c >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLouvainNeverDecreasesTrivialModularity(t *testing.T) {
	// The Louvain partition should always be at least as good as singletons.
	f := func(seed int64, n uint8, extra uint8) bool {
		rng := xrand.New(seed)
		nodes := int(n%15) + 2
		g := NewGraph()
		for i := 0; i < nodes; i++ {
			g.AddNode(i)
		}
		edges := int(extra%40) + 1
		for e := 0; e < edges; e++ {
			g.AddEdge(rng.Intn(nodes), rng.Intn(nodes), 1)
		}
		singletons := map[int]int{}
		for i := 0; i < nodes; i++ {
			singletons[i] = i
		}
		qSingle := Modularity(g, singletons)
		part := Louvain(g, rng)
		q := Modularity(g, part)
		return q >= qSingle-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLouvainEmptyAndSingleton(t *testing.T) {
	if part := Louvain(NewGraph(), nil); len(part) != 0 {
		t.Fatalf("empty graph partition = %v", part)
	}
	g := NewGraph()
	g.AddNode(5)
	part := Louvain(g, nil)
	if len(part) != 1 {
		t.Fatalf("singleton partition = %v", part)
	}
}

func TestNumCommunities(t *testing.T) {
	if got := NumCommunities(map[int]int{1: 0, 2: 0, 3: 1}); got != 2 {
		t.Fatalf("NumCommunities = %d, want 2", got)
	}
	if got := NumCommunities(nil); got != 0 {
		t.Fatalf("NumCommunities(nil) = %d, want 0", got)
	}
}

func BenchmarkLouvain100Nodes(b *testing.B) {
	rng := xrand.New(3)
	g := NewGraph()
	// 5 planted communities of 20 nodes.
	for c := 0; c < 5; c++ {
		for i := 0; i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				if rng.Bool(0.4) {
					g.AddEdge(c*20+i, c*20+j, 1)
				}
			}
		}
	}
	for e := 0; e < 100; e++ {
		g.AddEdge(rng.Intn(100), rng.Intn(100), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Louvain(g, xrand.New(int64(i)))
	}
}
