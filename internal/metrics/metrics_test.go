package metrics

import (
	"math"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/dag"
)

// buildClusteredDAG creates a DAG where clients 1,2 (cluster 0) approve each
// other and clients 3,4 (cluster 1) approve each other, plus one
// cross-cluster approval.
func buildClusteredDAG(t *testing.T) *dag.DAG {
	t.Helper()
	d := dag.New(nil)
	a, _ := d.Add(1, 0, []dag.ID{0, 0}, nil, dag.Meta{})
	b, _ := d.Add(2, 0, []dag.ID{a.ID, a.ID}, nil, dag.Meta{}) // 2->1 intra
	c, _ := d.Add(1, 1, []dag.ID{b.ID, b.ID}, nil, dag.Meta{}) // 1->2 intra
	x, _ := d.Add(3, 1, []dag.ID{0, 0}, nil, dag.Meta{})       // genesis only
	y, _ := d.Add(4, 2, []dag.ID{x.ID, x.ID}, nil, dag.Meta{}) // 4->3 intra
	_, _ = d.Add(3, 2, []dag.ID{y.ID, c.ID}, nil, dag.Meta{})  // 3->4 intra, 3->1 cross
	return d
}

var testClusters = map[int]int{1: 0, 2: 0, 3: 1, 4: 1}

func TestBuildClientGraph(t *testing.T) {
	d := buildClusteredDAG(t)
	g := BuildClientGraph(d)
	// Edges: 2-1 (w 1 from b) + 1-2 (w 1 from c) accumulate on the same
	// undirected edge => weight 2.
	if got := g.Weight(1, 2); got != 2 {
		t.Fatalf("weight(1,2) = %v, want 2", got)
	}
	if got := g.Weight(3, 4); got != 2 {
		t.Fatalf("weight(3,4) = %v, want 2", got)
	}
	if got := g.Weight(1, 3); got != 1 {
		t.Fatalf("weight(1,3) = %v, want 1", got)
	}
	// All four issuers are nodes; genesis is not.
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %v", g.Nodes())
	}
}

func TestBuildClientGraphIgnoresSelfAndGenesis(t *testing.T) {
	d := dag.New(nil)
	a, _ := d.Add(7, 0, []dag.ID{0, 0}, nil, dag.Meta{})
	d.Add(7, 1, []dag.ID{a.ID, a.ID}, nil, dag.Meta{}) // self-approval only
	g := BuildClientGraph(d)
	if g.TotalWeight() != 0 {
		t.Fatalf("self-approvals must not create edges, total weight %v", g.TotalWeight())
	}
	if g.NumNodes() != 1 {
		t.Fatalf("publishing client should still be a node: %v", g.Nodes())
	}
}

func TestApprovalPureness(t *testing.T) {
	d := buildClusteredDAG(t)
	// Cross-client approvals: 2->1, 1->2, 4->3, 3->4 (intra) and 3->1
	// (cross) => pureness 4/5.
	got := ApprovalPureness(d, testClusters)
	if math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("pureness = %v, want 0.8", got)
	}
}

func TestApprovalPurenessVacuous(t *testing.T) {
	d := dag.New(nil)
	d.Add(1, 0, []dag.ID{0, 0}, nil, dag.Meta{})
	if got := ApprovalPureness(d, testClusters); got != 1 {
		t.Fatalf("vacuous pureness = %v, want 1", got)
	}
}

func TestMisclassification(t *testing.T) {
	tests := []struct {
		name      string
		partition map[int]int
		truth     map[int]int
		want      float64
	}{
		{
			"perfect",
			map[int]int{1: 0, 2: 0, 3: 1, 4: 1},
			map[int]int{1: 0, 2: 0, 3: 1, 4: 1},
			0,
		},
		{
			"one stray",
			map[int]int{1: 0, 2: 0, 3: 0, 4: 1},
			map[int]int{1: 0, 2: 0, 3: 1, 4: 1},
			0.25,
		},
		{
			"merged communities",
			map[int]int{1: 0, 2: 0, 3: 0, 4: 0},
			map[int]int{1: 0, 2: 0, 3: 1, 4: 1},
			0.5,
		},
		{
			"empty",
			map[int]int{},
			map[int]int{},
			0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Misclassification(tt.partition, tt.truth); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Misclassification = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPoisonedApprovals(t *testing.T) {
	d := dag.New(nil)
	a, _ := d.Add(1, 0, []dag.ID{0, 0}, nil, dag.Meta{Poisoned: true})
	b, _ := d.Add(2, 1, []dag.ID{a.ID, a.ID}, nil, dag.Meta{})
	c, _ := d.Add(3, 2, []dag.ID{b.ID, b.ID}, nil, dag.Meta{Poisoned: true})
	if got := PoisonedApprovals(d, c.ID); got != 1 {
		t.Fatalf("poisoned ancestors of c = %d, want 1 (a, not c itself)", got)
	}
	if got := PoisonedApprovals(d, a.ID); got != 0 {
		t.Fatalf("poisoned ancestors of a = %d, want 0", got)
	}
}

func TestClusterHistogram(t *testing.T) {
	partition := map[int]int{1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
	poisoned := map[int]bool{3: true, 4: true}
	benign, bad := ClusterHistogram(partition, poisoned)
	if benign[0] != 2 || bad[0] != 0 {
		t.Fatalf("community 0: benign %d bad %d", benign[0], bad[0])
	}
	if benign[1] != 1 || bad[1] != 2 {
		t.Fatalf("community 1: benign %d bad %d", benign[1], bad[1])
	}
}

func TestNewBoxStats(t *testing.T) {
	b := NewBoxStats([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Q1 != 2 || b.Q3 != 4 || b.Mean != 3 || b.N != 5 {
		t.Fatalf("BoxStats = %+v", b)
	}
	empty := NewBoxStats(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty BoxStats = %+v", empty)
	}
	if !strings.Contains(b.String(), "med=3.000") {
		t.Fatalf("String() = %q", b.String())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("fig", "round", "acc")
	s.Add(0, 0.5)
	s.Add(1, 0.75)
	if got := s.Col("acc"); len(got) != 2 || got[1] != 0.75 {
		t.Fatalf("Col = %v", got)
	}
	if got := s.Last("acc"); got != 0.75 {
		t.Fatalf("Last = %v", got)
	}
	tbl := s.Table()
	for _, want := range []string{"### fig", "| round | acc |", "| 1 | 0.7500 |"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("Table missing %q:\n%s", want, tbl)
		}
	}
}

func TestSeriesPanics(t *testing.T) {
	s := NewSeries("x", "a", "b")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add with wrong arity should panic")
			}
		}()
		s.Add(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Col with unknown name should panic")
			}
		}()
		s.Col("nope")
	}()
}
