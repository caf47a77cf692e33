// Benchmark harness: one sub-benchmark per row of sim.Experiments — every
// table and figure of the paper's evaluation (§5) plus the repo's ablations
// and extensions.
//
// Each sub-benchmark regenerates its experiment at Quick scale, prints the
// rendered rows/series once and reports the experiment's metrics, so
//
//	go test -run '^$' -bench Experiments -benchtime 1x . | tee bench_output.txt
//
// records the reproduced numbers. The metrics are pinned by
// TestExperimentsGolden (internal/sim); timings belong to bench/ (see
// bench/README.md). Paper-scale runs of the same experiments:
// cmd/experiments -full.
//
// The worker budget is GOMAXPROCS and results are identical for any size, so
// -cpu 1,4 is a pure wall-clock comparison of the sequential and parallel
// engine.
package specdag_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/sim"
)

func BenchmarkExperiments(b *testing.B) {
	env := sim.Env{Pool: par.NewBudget(runtime.GOMAXPROCS(0))}
	for _, e := range sim.Experiments() {
		printed := false // b.Run re-enters with growing b.N; print the series once
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				text, metrics, err := e.Run(context.Background(), env, sim.Quick, 42)
				if err != nil {
					b.Fatal(err)
				}
				if !printed {
					printed = true
					fmt.Println(text)
				}
				for _, m := range metrics {
					b.ReportMetric(m.Value, m.Name)
				}
			}
		})
	}
}
