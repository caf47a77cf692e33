package core

import (
	"container/heap"
	"testing"

	"github.com/specdag/specdag/internal/dag"
)

// TestLookaheadWindowBound pins the window rule: an activation at t₀ opens a
// window of the queued activations less than MinCycle after it and within the
// horizon, in event order; an activation sees the publications of the ones at
// least NetworkDelay before it (seen, a prefix). Without a delay, or under a
// non-uniform fault model, the window is the activation alone.
func TestLookaheadWindowBound(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*AsyncConfig)
		queued []float64 // the other clients' activation times; the window opens at 10
		want   []float64 // the window's activation times, the opening one first
		seen   []int     // per window activation, how many before it it sees
	}{
		{"delay below min-cycle", func(c *AsyncConfig) { c.NetworkDelay, c.MinCycle = 0.25, 1 },
			[]float64{10.7, 11, 10.25, 10, 10.9999, 10.3, 10.2, 11.5},
			[]float64{10, 10, 10.2, 10.25, 10.3, 10.7, 10.9999},
			[]int{0, 0, 0, 2, 2, 5, 6}},
		{"delay above min-cycle", func(c *AsyncConfig) { c.NetworkDelay, c.MinCycle = 3, 1 },
			[]float64{12, 11, 10.9999, 10.5}, []float64{10, 10.5, 10.9999}, []int{0, 0, 0}},
		{"exactly at the bound", func(c *AsyncConfig) { c.NetworkDelay, c.MinCycle = 0.25, 0.25 },
			[]float64{10.25, 10.125}, []float64{10, 10.125}, []int{0, 0}},
		{"horizon", func(c *AsyncConfig) { c.NetworkDelay, c.MinCycle, c.Duration = 3, 1, 10.5 },
			[]float64{10.6, 10.5, 10.4}, []float64{10, 10.4, 10.5}, []int{0, 0, 0}},
		{"no delay", func(c *AsyncConfig) { c.NetworkDelay = 0 },
			[]float64{10, 10.1}, []float64{10}, []int{0}},
		{"fault schedule", func(c *AsyncConfig) { c.NetworkDelay, c.Faults = 0, chaosFaults() },
			[]float64{10, 10.1}, []float64{10}, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := asyncConfig()
			tc.mutate(&cfg)
			a, err := NewAsyncSimulation(smallFed(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One queued activation per client, as the engine keeps them: the
			// opening one has the lowest seq, so ties sort after it.
			a.queue = eventQueue{{at: 10, seq: 100, client: 0}}
			for i, at := range tc.queued {
				a.queue = append(a.queue, event{at: at, seq: 101 + i, client: 1 + i})
			}
			heap.Init(&a.queue)
			first := heap.Pop(&a.queue).(event)
			got := a.windowOf(first)
			if len(got) != len(tc.want) {
				t.Fatalf("window = %+v, want activations at %v", got, tc.want)
			}
			for i, ev := range got {
				if ev.at != tc.want[i] || (i > 0 && !eventQueue(got).Less(i-1, i)) {
					t.Fatalf("window = %+v, want activations at %v in event order", got, tc.want)
				}
				if seen := a.seenBy(got, i); seen != tc.seen[i] {
					t.Fatalf("the activation at %v sees %d earlier ones, want %d", ev.at, seen, tc.seen[i])
				}
			}
			if a.queue.Len() != len(tc.queued) {
				t.Fatal("forming a window must leave its activations queued")
			}
		})
	}
}

// TestCrashAnywhereCutsInsideWindows: the crash-anywhere batteries checkpoint
// before every event, so they resume from inside lookahead windows exactly
// when their runs form windows of more than one activation. The delayed
// configuration of TestCrashAnywhereResumeEquivalenceAsync and the one of
// TestCompactionCrashAnywhereResumeAsync must.
func TestCrashAnywhereCutsInsideWindows(t *testing.T) {
	delayed := asyncConfig()
	delayed.Duration = 6
	delayed.NetworkDelay, delayed.Workers = 3, 4
	compacted := asyncConfig()
	compacted.Duration = 30
	compacted.Selector = bandedSelector()
	compacted.Workers = 2
	compacted.Compaction = dag.Compaction{Width: 4, Live: 2, SpillDir: t.TempDir()}
	for _, c := range []struct {
		name    string
		cfg     AsyncConfig
		fedSeed int64
	}{{"network-delay-workers-4", delayed, 221}, {"compaction", compacted, 33}} {
		a, err := NewAsyncSimulation(smallFed(c.fedSeed), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		drainAsync(a)
		if a.widest < 2 {
			t.Errorf("%s: no window held more than one activation, so no checkpoint fell inside one", c.name)
		}
	}
}
