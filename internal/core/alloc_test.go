//go:build !race

// The race detector's instrumentation allocates on its own account.

package core_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/sim"
)

// TestAsyncEventAllocations pins what one event of a compacting long-haul
// engine allocates once its first epoch has frozen (bench's async-longhaul
// configuration: 0.1 s delay, epochs of 5 s): objects per event by
// testing.AllocsPerRun and bytes per event from TotalAlloc, at Workers 1 and
// at Workers 2 on a budget of that size. What remains is what an event keeps
// or hands out — a published parameter vector and its records, the Step
// result, epoch freezes and spills — not walk or scoring scratch. It uses
// only exported API, so the file alone also measures an older checkout.
func TestAsyncEventAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("ramps a long-haul engine past its first freeze")
	}
	const seed, ramp, warm, runs = 7, 1500, 200, 400
	const maxObjects, maxBytes = 12, 6 << 10 // per event; 118 and 26 KB before scratch reuse
	spec := sim.LongHaulSpec(seed)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			cfg := sim.LongHaulAsyncConfig(sim.Full, dir, seed)
			cfg.NetworkDelay = 0.1
			cfg.Compaction = dag.Compaction{Width: 5, Live: 2, SpillDir: dir}
			cfg.Workers, cfg.Pool = workers, par.NewBudget(workers)
			eng, err := core.NewAsyncSimulation(spec.Fed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			step := func() {
				if _, done, err := eng.Step(ctx); err != nil || done {
					t.Fatalf("event %d: done %v, %v", eng.Events(), done, err)
				}
			}
			for n := 0; n < ramp && eng.DAG().LiveFloor() == 0; n++ {
				step()
			}
			if eng.DAG().LiveFloor() == 0 {
				t.Fatalf("no epoch froze in %d events", ramp)
			}
			for n := 0; n < warm; n++ {
				step()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			objects := testing.AllocsPerRun(runs, step)
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
			t.Logf("%.1f objects and %.0f bytes per event", objects, bytes)
			if objects > maxObjects || bytes > maxBytes {
				t.Errorf("an event allocates %.1f objects and %.0f bytes, want at most %d and %d", objects, bytes, maxObjects, maxBytes)
			}
		})
	}
}
