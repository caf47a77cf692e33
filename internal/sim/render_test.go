package sim

import (
	"testing"

	"github.com/specdag/specdag/internal/metrics"
)

// TestRenderWide pins the round-keyed wide table behind RenderCurves,
// RenderFig1011 and RenderPoison byte for byte: headers, separators, the
// %.3f / %.1f cells, and the title-only rendering of an empty sweep. The
// expected text was recorded from the three hand-written renderers this one
// table replaced.
func TestRenderWide(t *testing.T) {
	curve := func(label string, cols []string, rows ...[]float64) Curve {
		s := metrics.NewSeries(label, cols...)
		for _, r := range rows {
			s.Add(r...)
		}
		return Curve{Label: label, Series: s}
	}
	var (
		acc     = []string{"round", "acc"}
		accLoss = []string{"round", "acc", "loss"}
		poison  = []string{"round", "flippedPct", "flippedBenignPct", "poisonedApprovals"}
	)

	for _, tc := range []struct{ name, got, want string }{
		{"curves", RenderCurves("Figure 6: accuracy", []Curve{
			curve("alpha=0.1", acc, []float64{1, 0.12345}, []float64{2, 0.5}),
			curve("alpha=10", acc, []float64{1, 0.98765}, []float64{2, 1}),
		}), `### Figure 6: accuracy

| round | alpha=0.1 | alpha=10 |
|---|---|---|
| 1 | 0.123 | 0.988 |
| 2 | 0.500 | 1.000 |
`},
		{"curves, none", RenderCurves("Figure 8", nil), "### Figure 8\n\n"},
		{"fig10/11", RenderFig1011("Figures 10 & 11", []Curve{
			curve("FedAvg", accLoss, []float64{1, 0.25, 2.3026}, []float64{2, 0.75, 0.6931}),
			curve("DAG", accLoss, []float64{1, 0.3333, 1.5}, []float64{2, 0.6667, 0.0004}),
		}), `### Figures 10 & 11

| round | FedAvg acc | FedAvg loss | DAG acc | DAG loss |
|---|---|---|---|---|
| 1 | 0.250 | 2.303 | 0.333 | 1.500 |
| 2 | 0.750 | 0.693 | 0.667 | 0.000 |
`},
		{"fig10/11, none", RenderFig1011("Extension", nil), "### Extension\n\n"},
		{"poison", RenderPoison([]Curve{
			curve("p=0.0", poison, []float64{10, 0, 0, 0}, []float64{11, 1.26, 0.94, 0.05}),
			curve("p=0.2 random", poison, []float64{10, 12.5, 7.75, 3}, []float64{11, 100, 99.96, 12.25}),
		}), `### Figures 12 & 13: flipped predictions and poisoned approvals

| round | p=0.0 flipped% | p=0.0 benign% | p=0.0 approvals | p=0.2 random flipped% | p=0.2 random benign% | p=0.2 random approvals |
|---|---|---|---|---|---|---|
| 10 | 0.0 | 0.0 | 0.0 | 12.5 | 7.8 | 3.0 |
| 11 | 1.3 | 0.9 | 0.1 | 100.0 | 100.0 | 12.2 |
`},
		{"poison, none", RenderPoison(nil), "### Figures 12 & 13: flipped predictions and poisoned approvals\n\n"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s renders\n%s\nwant\n%s", tc.name, tc.got, tc.want)
		}
	}
}
