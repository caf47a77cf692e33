package sim

import (
	"fmt"
	"strings"

	"github.com/specdag/specdag/internal/mathx"
)

// RenderTable2 renders Table 2 rows as markdown.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("### Table 2: approval pureness after training\n\n")
	b.WriteString("| Dataset | # clusters | base pureness | pureness |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %.2f | %.2f |\n", r.Dataset, r.Clusters, r.Base, r.Pureness)
	}
	return b.String()
}

// RenderFig5 renders the α-tuning metric trajectories of Fig. 5.
func RenderFig5(results []Fig5Result) string {
	var b strings.Builder
	b.WriteString("### Figure 5: choosing alpha (G_clients metrics)\n\n")
	for _, r := range results {
		b.WriteString(r.Series.Table())
		b.WriteString("\n")
	}
	return b.String()
}

// wideCol is one column group of a wide table: a series column, how its
// header reads after the curve's label, and its cell format.
type wideCol struct {
	col, suffix, format string
}

// renderWide merges curves into one round-keyed table: a column per curve
// and wideCol, rows from the first curve's rounds.
func renderWide(title string, curves []Curve, cols ...wideCol) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	if len(curves) == 0 {
		return b.String()
	}
	type column struct {
		values []float64
		cell   string // format of one cell, separator included
	}
	var columns []column
	b.WriteString("| round |")
	for _, c := range curves {
		for _, col := range cols {
			fmt.Fprintf(&b, " %s%s |", c.Label, col.suffix)
			columns = append(columns, column{c.Series.Col(col.col), " " + col.format + " |"})
		}
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(columns)) + "\n")
	for r, round := range curves[0].Series.Col("round") {
		fmt.Fprintf(&b, "| %.0f |", round)
		for _, col := range columns {
			fmt.Fprintf(&b, col.cell, col.values[r])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderCurves renders labeled accuracy curves (Figs. 6-8).
func RenderCurves(title string, curves []Curve) string {
	return renderWide(title, curves, wideCol{"acc", "", "%.3f"})
}

// RenderFig7 renders the dynamic-normalization comparison.
func RenderFig7(r *Fig7Result) string {
	var b strings.Builder
	b.WriteString(RenderCurves("Figure 7: accuracy by alpha (dynamic normalization)", r.Curves))
	b.WriteString("\nApproval pureness at alpha=1:\n")
	for _, norm := range []string{"standard", "dynamic"} {
		fmt.Fprintf(&b, "  %-8s: %.2f\n", norm, r.PurenessAlpha1[norm])
	}
	return b.String()
}

// RenderFig9 renders the FedAvg-vs-DAG accuracy distributions.
func RenderFig9(results []Fig9Result) string {
	var b strings.Builder
	b.WriteString("### Figure 9: accuracy distribution, FedAvg vs Specializing DAG\n\n")
	for _, r := range results {
		fmt.Fprintf(&b, "#### %s\n\n", r.Dataset)
		b.WriteString("| rounds | FedAvg median (q1–q3) | DAG median (q1–q3) |\n|---|---|---|\n")
		n := len(r.FedAvg)
		if len(r.DAG) < n {
			n = len(r.DAG)
		}
		for i := 0; i < n; i++ {
			f, d := r.FedAvg[i].Stats, r.DAG[i].Stats
			fmt.Fprintf(&b, "| %d+ | %.3f (%.3f–%.3f) | %.3f (%.3f–%.3f) |\n",
				r.FedAvg[i].StartRound, f.Median, f.Q1, f.Q3, d.Median, d.Q1, d.Q3)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFig1011 renders per-algorithm accuracy and loss curves (Figs. 10 and
// 11, and the gossip comparison).
func RenderFig1011(title string, curves []Curve) string {
	return renderWide(title, curves, wideCol{"acc", " acc", "%.3f"}, wideCol{"loss", " loss", "%.3f"})
}

// RenderPoison renders the Fig. 12/13 poisoning curves.
func RenderPoison(curves []Curve) string {
	return renderWide("Figures 12 & 13: flipped predictions and poisoned approvals", curves,
		wideCol{"flippedPct", " flipped%", "%.1f"},
		wideCol{"flippedBenignPct", " benign%", "%.1f"},
		wideCol{"poisonedApprovals", " approvals", "%.1f"})
}

// RenderFig14 renders the poisoned-client community histogram.
func RenderFig14(r *Fig14Result) string {
	var b strings.Builder
	b.WriteString("### Figure 14: distribution of poisoned clients over inferred clusters (p=0.3)\n\n")
	fmt.Fprintf(&b, "communities: %d, containment: %.2f\n\n", r.Communities, r.Containment)
	b.WriteString("| community | benign | poisoned |\n|---|---|---|\n")
	for i := range r.Benign {
		fmt.Fprintf(&b, "| %d | %d | %d |\n", i, r.Benign[i], r.Poisoned[i])
	}
	return b.String()
}

// RenderFig15 renders the walk-scalability curves.
func RenderFig15(curves []Fig15Curve) string {
	var b strings.Builder
	b.WriteString("### Figure 15: random-walk cost vs concurrently active clients\n\n")
	b.WriteString("| active clients | mean walk µs | mean evals/client | final-round evals/client |\n|---|---|---|---|\n")
	for _, c := range curves {
		micros := c.Series.Col("walkMicros")
		evals := c.Series.Col("evalsPerClient")
		fmt.Fprintf(&b, "| %d | %.0f | %.1f | %.1f |\n",
			c.ActiveClients, mathx.Mean(micros), mathx.Mean(evals), evals[len(evals)-1])
	}
	return b.String()
}

// RenderAblation renders ablation rows.
func RenderAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Ablation: %s\n\n", title)
	b.WriteString("| variant | final acc | pureness | DAG size | walk evals |\n|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %.3f | %.2f | %d | %d |\n", r.Variant, r.FinalAcc, r.Pureness, r.DAGSize, r.WalkEvals)
	}
	return b.String()
}
