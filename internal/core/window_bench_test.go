package core_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/sim"
)

// BenchmarkAsyncWindow is the layer number behind async-longhaul's
// activations_per_s: a compacting long-haul engine at bench's 0.1 s delay,
// ramped untimed until its first freeze (at most 1 500 events), then stepped
// through 1 000 timed events at Workers 1 and 2 on a budget of that size —
// the lookahead windows' fan-out against their inline computation. It uses
// only exported API, so the file alone also measures an older checkout.
func BenchmarkAsyncWindow(b *testing.B) {
	const seed, ramp, timed = 7, 1500, 1000
	spec := sim.LongHaulSpec(seed)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				cfg := sim.LongHaulAsyncConfig(sim.Full, dir, seed)
				cfg.NetworkDelay = 0.1
				cfg.Compaction = dag.Compaction{Width: 5, Live: 2, SpillDir: dir}
				cfg.Workers, cfg.Pool = workers, par.NewBudget(workers)
				eng, err := core.NewAsyncSimulation(spec.Fed, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; n < ramp && eng.DAG().LiveFloor() == 0; n++ {
					if _, _, err := eng.Step(ctx); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for n := 0; n < timed; n++ {
					if _, done, err := eng.Step(ctx); err != nil || done {
						b.Fatalf("event %d: done %v, %v", n, done, err)
					}
				}
			}
			b.ReportMetric(float64(timed*b.N)/b.Elapsed().Seconds(), "activations/s")
		})
	}
}
