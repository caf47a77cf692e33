// Package metrics derives the specialization and robustness measures of the
// paper's evaluation from a DAG of model updates: the client graph
// G_clients, approval pureness, Louvain-based misclassification fraction
// (§4.3), and the poisoning accounting of §5.3.4.
package metrics

import (
	"fmt"
	"strings"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/graphx"
	"github.com/specdag/specdag/internal/mathx"
)

// BuildClientGraph derives G_clients from the DAG (§4.3): the edge weight
// between clients a and b is the number of transactions published by a that
// directly approve a transaction of b, or vice versa. Approvals of one's own
// transactions and of genesis are ignored; every publishing client becomes a
// node even without cross-client edges.
func BuildClientGraph(d *dag.DAG) *graphx.Graph {
	g := graphx.NewGraph()
	for _, tx := range d.All() {
		if tx.IsGenesis() {
			continue
		}
		g.AddNode(tx.Issuer)
		for _, pid := range uniqueParents(tx) {
			parent := d.MustGet(pid)
			if parent.IsGenesis() || parent.Issuer == tx.Issuer {
				continue
			}
			g.AddEdge(tx.Issuer, parent.Issuer, 1)
		}
	}
	return g
}

// uniqueParents deduplicates a transaction's parent list: approving the same
// transaction twice is a single approval relationship.
func uniqueParents(tx *dag.Transaction) []dag.ID {
	if len(tx.Parents) == 2 && tx.Parents[0] == tx.Parents[1] {
		return tx.Parents[:1]
	}
	return tx.Parents
}

// ApprovalPureness returns the fraction of approval edges that connect
// transactions of clients from the same cluster (Table 2). Approvals of
// genesis and self-approvals are excluded. A DAG without qualifying edges
// yields 1 (vacuously pure).
func ApprovalPureness(d *dag.DAG, clusterOf map[int]int) float64 {
	same, total := 0, 0
	for _, tx := range d.All() {
		if tx.IsGenesis() {
			continue
		}
		for _, pid := range uniqueParents(tx) {
			parent := d.MustGet(pid)
			if parent.IsGenesis() || parent.Issuer == tx.Issuer {
				continue
			}
			total++
			if clusterOf[tx.Issuer] == clusterOf[parent.Issuer] {
				same++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(same) / float64(total)
}

// Misclassification computes the misclassification fraction of §4.3: given
// an inferred partition (client -> community) and ground-truth clusters
// (client -> cluster), a client is misclassified when the relative majority
// of its community belongs to a different cluster. Clients missing from
// truth are skipped.
func Misclassification(partition, truth map[int]int) float64 {
	if len(partition) == 0 {
		return 0
	}
	// Per community, count ground-truth clusters.
	counts := make(map[int]map[int]int)
	total := 0
	//speclint:allow maporder integer counts per (community, cluster) and one total; the same in any order
	for client, comm := range partition {
		cluster, ok := truth[client]
		if !ok {
			continue
		}
		if counts[comm] == nil {
			counts[comm] = make(map[int]int)
		}
		counts[comm][cluster]++
		total++
	}
	if total == 0 {
		return 0
	}
	// Majority cluster per community (ties resolved to the lower cluster ID
	// for determinism; a tied client still counts as correctly classified
	// only if it is in the chosen majority).
	mis := 0
	//speclint:allow maporder each community adds its own integer count to mis; the same in any order
	for comm, clusterCounts := range counts {
		best, bestN := -1, -1
		//speclint:allow maporder maximum with ties broken to the lower cluster ID: one winner in any order
		for cluster, n := range clusterCounts {
			if n > bestN || (n == bestN && cluster < best) {
				best, bestN = cluster, n
			}
		}
		//speclint:allow maporder integer count of this community's clients outside its majority cluster
		for client, c := range partition {
			if c != comm {
				continue
			}
			cluster, ok := truth[client]
			if !ok {
				continue
			}
			if cluster != best {
				mis++
			}
		}
	}
	return float64(mis) / float64(total)
}

// PoisonedApprovals counts the poisoned transactions among the ancestors
// (direct or indirect approvals) of the given transaction — the quantity
// plotted in Fig. 13 for the consensus reference transaction.
func PoisonedApprovals(d *dag.DAG, id dag.ID) int {
	n := 0
	//speclint:allow maporder integer count over an unordered ancestor set; MustGet is a pure lock-free read, so the count is visit-order-independent
	for anc := range d.Ancestors(id) {
		if d.MustGet(anc).Meta.Poisoned {
			n++
		}
	}
	return n
}

// ClusterHistogram counts, per inferred community, how many of its clients
// are in the poisoned set (Fig. 14). The first return value is benign counts
// per community ID 0..k-1, the second poisoned counts.
func ClusterHistogram(partition map[int]int, poisoned map[int]bool) (benign, bad []int) {
	k := graphx.NumCommunities(partition)
	benign = make([]int, k)
	bad = make([]int, k)
	for client, comm := range partition {
		if poisoned[client] {
			bad[comm]++
		} else {
			benign[comm]++
		}
	}
	return benign, bad
}

// BoxStats summarizes a sample for box plots (Fig. 9): min, first quartile,
// median, third quartile, max, and the mean.
type BoxStats struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// NewBoxStats computes BoxStats for values; the zero value is returned for
// empty input.
func NewBoxStats(values []float64) BoxStats {
	if len(values) == 0 {
		return BoxStats{}
	}
	min, max := mathx.MinMax(values)
	return BoxStats{
		Min:    min,
		Q1:     mathx.Quantile(values, 0.25),
		Median: mathx.Quantile(values, 0.5),
		Q3:     mathx.Quantile(values, 0.75),
		Max:    max,
		Mean:   mathx.Mean(values),
		N:      len(values),
	}
}

// String renders the stats compactly.
func (b BoxStats) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f n=%d",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.N)
}

// Series is a per-round record of named metric columns, used to regenerate
// the paper's figures as printable tables.
type Series struct {
	Name string
	Cols []string
	Rows [][]float64
}

// NewSeries creates a series with the given name and column headers.
func NewSeries(name string, cols ...string) *Series {
	return &Series{Name: name, Cols: cols}
}

// Add appends one row. It panics if the column count mismatches, which
// indicates a harness bug.
func (s *Series) Add(row ...float64) {
	if len(row) != len(s.Cols) {
		panic(fmt.Sprintf("metrics: series %q row has %d values, want %d", s.Name, len(row), len(s.Cols)))
	}
	s.Rows = append(s.Rows, append([]float64(nil), row...))
}

// Col returns the values of the named column. It panics on unknown names.
func (s *Series) Col(name string) []float64 {
	for i, c := range s.Cols {
		if c == name {
			out := make([]float64, len(s.Rows))
			for r, row := range s.Rows {
				out[r] = row[i]
			}
			return out
		}
	}
	panic(fmt.Sprintf("metrics: series %q has no column %q", s.Name, name))
}

// Last returns the final value of the named column, or 0 if empty.
func (s *Series) Last(name string) float64 {
	col := s.Col(name)
	if len(col) == 0 {
		return 0
	}
	return col[len(col)-1]
}

// Table renders the series as a GitHub-flavored markdown table.
func (s *Series) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", s.Name)
	b.WriteString("| " + strings.Join(s.Cols, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(s.Cols)) + "\n")
	for _, row := range s.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = formatCell(v)
		}
		b.WriteString("| " + strings.Join(parts, " | ") + " |\n")
	}
	return b.String()
}

func formatCell(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}
