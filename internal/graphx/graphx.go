// Package graphx provides the weighted-graph machinery used to measure
// implicit specialization (paper §4.3): an undirected weighted graph of
// clients, Newman modularity, and Louvain community detection.
//
// Edge weights are counts. Adjacency lives in maps, and the weight sums
// below run in map order: that is exact, and so the same in every order,
// because the weights are integer-valued (G_clients counts approvals, and
// aggregation only adds them up). Whatever is not a sum of weights — the
// modularity terms, the candidate gains — is reduced in sorted order.
package graphx

import (
	"sort"

	"github.com/specdag/specdag/internal/xrand"
)

// Graph is an undirected weighted graph over integer node IDs. Parallel
// AddEdge calls accumulate weight. Self-loops are supported and, following
// the usual convention, contribute twice to a node's degree.
type Graph struct {
	adj   map[int]map[int]float64
	nodes map[int]struct{}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		adj:   make(map[int]map[int]float64),
		nodes: make(map[int]struct{}),
	}
}

// AddNode ensures u exists, even with no incident edges.
func (g *Graph) AddNode(u int) { g.nodes[u] = struct{}{} }

// AddEdge accumulates weight w onto the undirected edge {u, v}.
func (g *Graph) AddEdge(u, v int, w float64) {
	g.AddNode(u)
	g.AddNode(v)
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]float64)
	}
	g.adj[u][v] += w
	if u == v {
		return
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]float64)
	}
	g.adj[v][u] += w
}

// Weight returns the weight of edge {u, v} (0 if absent).
func (g *Graph) Weight(u, v int) float64 { return g.adj[u][v] }

// Neighbors returns u's neighbors (including u itself if a self-loop
// exists) in ascending order.
func (g *Graph) Neighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []int {
	out := make([]int, 0, len(g.nodes))
	for u := range g.nodes {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Degree returns the weighted degree of u; self-loops count twice.
func (g *Graph) Degree(u int) float64 {
	d := 0.0
	//speclint:allow maporder sum of integer-valued edge weights, exact in any order (package doc); Louvain calls this per node per sweep, too often to sort
	for v, w := range g.adj[u] {
		if v == u {
			d += 2 * w
		} else {
			d += w
		}
	}
	return d
}

// TotalWeight returns m, the sum of all edge weights (each undirected edge
// counted once; self-loops once).
func (g *Graph) TotalWeight() float64 {
	m := 0.0
	//speclint:allow maporder sum of integer-valued edge weights, exact in any order (package doc)
	for u, nbrs := range g.adj {
		//speclint:allow maporder same sum, inner half
		for v, w := range nbrs {
			if u < v {
				m += w
			} else if u == v {
				m += w
			}
		}
	}
	return m
}

// Modularity computes Newman's modularity Q ∈ [-1/2, 1] of the given
// partition (node -> community):
//
//	Q = (1/2m) Σ_ij [A_ij − k_i·k_j/(2m)] δ(c_i, c_j)
//
// Nodes missing from the partition are treated as singleton communities.
// A graph without edges has modularity 0 by convention.
func Modularity(g *Graph, partition map[int]int) float64 {
	m := g.TotalWeight()
	if m == 0 {
		return 0
	}
	two := 2 * m

	community := func(u int) int {
		if c, ok := partition[u]; ok {
			return c
		}
		// Singleton fallback: use a community ID that cannot collide with
		// provided IDs by offsetting with the node ID beyond any provided c.
		return -1 - u
	}

	// Σ of intra-community edge weights and of community degrees.
	intra := make(map[int]float64)
	degSum := make(map[int]float64)
	for _, u := range g.Nodes() {
		cu := community(u)
		degSum[cu] += g.Degree(u)
		//speclint:allow maporder per-community sum of integer-valued edge weights, exact in any order (package doc)
		for v, w := range g.adj[u] {
			cv := community(v)
			if cu != cv {
				continue
			}
			if u < v {
				intra[cu] += w
			} else if u == v {
				intra[cu] += w // self-loop counted once
			}
		}
	}

	// Reduce in ascending community order: the terms are not integers, so
	// map order would move Q in its last bit from one call to the next.
	comms := make([]int, 0, len(degSum))
	for c := range degSum {
		comms = append(comms, c)
	}
	sort.Ints(comms)
	q := 0.0
	for _, c := range comms {
		q += intra[c] / m
	}
	for _, c := range comms {
		q -= float64((degSum[c] / two) * (degSum[c] / two))
	}
	return q
}

// Louvain detects communities by modularity maximization (Blondel et al.):
// repeated local-move passes followed by graph aggregation, until no pass
// improves modularity. rng randomizes the node visiting order; pass nil for
// a deterministic ascending order.
//
// The returned map assigns every node a community ID in [0, #communities).
func Louvain(g *Graph, rng *xrand.RNG) map[int]int {
	if g.NumNodes() == 0 {
		return map[int]int{}
	}

	cur := g
	// current maps original node -> node ID in cur.
	current := make(map[int]int)
	for _, u := range g.Nodes() {
		current[u] = u
	}

	for level := 0; level < 64; level++ { // level cap guards non-termination
		local, improved := localMove(cur, rng)
		if !improved && level > 0 {
			break
		}
		// Compose: original node -> new community.
		for u, cu := range current {
			current[u] = local[cu]
		}
		if !improved {
			break
		}
		cur = aggregate(cur, local)
	}

	// Renumber communities densely for stable output.
	ids := make(map[int]int)
	out := make(map[int]int, len(current))
	for _, u := range g.Nodes() {
		c := current[u]
		id, ok := ids[c]
		if !ok {
			id = len(ids)
			ids[c] = id
		}
		out[u] = id
	}
	return out
}

// localMove runs one Louvain phase-1 pass: every node starts in its own
// community and greedily moves to the neighboring community with the best
// positive modularity gain, repeating until a full sweep makes no move.
func localMove(g *Graph, rng *xrand.RNG) (map[int]int, bool) {
	nodes := g.Nodes()
	if rng != nil {
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	}

	m := g.TotalWeight()
	comm := make(map[int]int, len(nodes))
	commDeg := make(map[int]float64) // Σ_tot per community
	for _, u := range nodes {
		comm[u] = u
		commDeg[u] += g.Degree(u)
	}
	if m == 0 {
		return comm, false
	}
	two := 2 * m

	improvedEver := false
	for sweep := 0; sweep < 128; sweep++ {
		moved := false
		for _, u := range nodes {
			cu := comm[u]
			ku := g.Degree(u)

			// Weight from u to each neighboring community.
			wTo := make(map[int]float64)
			//speclint:allow maporder per-community sum of integer-valued edge weights, exact in any order (package doc); the gains are compared in sorted order below
			for v, w := range g.adj[u] {
				if v == u {
					continue
				}
				wTo[comm[v]] += w
			}

			// Remove u from its community.
			commDeg[cu] -= ku

			// Gain of joining community c: wTo[c] − ku·Σ_tot(c)/2m.
			bestC, bestGain := cu, wTo[cu]-ku*commDeg[cu]/two
			// Deterministic iteration over candidate communities.
			cands := make([]int, 0, len(wTo))
			for c := range wTo {
				cands = append(cands, c)
			}
			sort.Ints(cands)
			for _, c := range cands {
				gain := wTo[c] - ku*commDeg[c]/two
				if gain > bestGain+1e-12 {
					bestGain = gain
					bestC = c
				}
			}

			commDeg[bestC] += ku
			if bestC != cu {
				comm[u] = bestC
				moved = true
				improvedEver = true
			}
		}
		if !moved {
			break
		}
	}
	return comm, improvedEver
}

// aggregate builds the next-level graph: one node per community, edge
// weights summed; intra-community weight becomes a self-loop.
func aggregate(g *Graph, comm map[int]int) *Graph {
	out := NewGraph()
	//speclint:allow maporder inserts into a node set; the result is the same set in any order
	for c := range invertValues(comm) {
		out.AddNode(c)
	}
	//speclint:allow maporder AddEdge adds integer-valued weights onto per-pair totals, exact in any order (package doc)
	for u, nbrs := range g.adj {
		cu := comm[u]
		//speclint:allow maporder same accumulation, inner half
		for v, w := range nbrs {
			cv := comm[v]
			switch {
			case u < v:
				out.AddEdge(cu, cv, w)
			case u == v:
				out.AddEdge(cu, cv, w) // preserved self-loop
			}
		}
	}
	return out
}

func invertValues(m map[int]int) map[int]struct{} {
	out := make(map[int]struct{}, len(m))
	//speclint:allow maporder inserts into a set; the result is the same set in any order
	for _, v := range m {
		out[v] = struct{}{}
	}
	return out
}

// NumCommunities returns the number of distinct communities in a partition.
func NumCommunities(partition map[int]int) int { return len(invertValues(partition)) }
