package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/serve"
	"github.com/specdag/specdag/internal/wire"
)

// captureStdout returns what fn printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	fnErr := fn()
	os.Stdout = saved
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil || fnErr != nil {
		t.Fatalf("fn: %v, reading its output: %v", fnErr, err)
	}
	return string(out)
}

// TestEventLogStats pins the report for an event log as cmd/specdag -events
// and specdagd both write it: one start-frame key set (RunRequest.Info) for
// either engine, listed in sorted order.
func TestEventLogStats(t *testing.T) {
	req := serve.RunRequest{
		Dataset: "fmnist", Preset: "quick", Seed: 42, Selector: "accuracy", Alpha: 10, Norm: "standard",
		DepthMax: 4, CompactWidth: 5, Async: true, Duration: 20, MinCycle: 1, MaxCycle: 8, NetDelay: 0.5,
	}
	var buf bytes.Buffer
	log, err := wire.NewEventLog(&buf, 0, req.Info())
	if err != nil {
		t.Fatal(err)
	}
	hooks := log.Hooks()
	for i := 0; i < 3; i++ {
		hooks.OnPublish(engine.PublishEvent{Round: i, Tx: -1})
		hooks.OnRound(engine.RoundEvent{Round: i})
	}
	log.End(3, true, nil)
	if err := log.Err(); err != nil {
		t.Fatal(err)
	}

	got := captureStdout(t, func() error { return eventLogStats("run.sde", &buf) })
	const want = `event log: run.sde
run: engine specdag-async, seed 42
  alpha = 10
  compact_live = 2
  compact_width = 5
  dataset = fmnist
  depth_max = 4
  depth_min = 0
  duration = 20
  max_cycle = 8
  min_cycle = 1
  net_delay = 0.5
  norm = standard
  preset = quick
  selector = accuracy
frames: 8, indices [0, 7]
  start      1
  round      3
  publish    3
  end        1
outcome: completed after 3 steps
`
	if got != want {
		t.Errorf("dagstat report:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointReport: dagstat opens a checkpoint of either generation —
// core's committed fixtures, SDC2/SDA2 from an older build and SDC3/SDA3 —
// and names its kind and resume point before the tangle statistics.
func TestCheckpointReport(t *testing.T) {
	defer func(args []string, flags *flag.FlagSet) { os.Args, flag.CommandLine = args, flags }(os.Args, flag.CommandLine)
	for file, want := range map[string]string{
		"golden_sync_v2.sdc":  "simulation checkpoint: seed 9, round 2/4, 3 clients — resume with specdag -resume\n",
		"golden_sync_v3.sdc":  "simulation checkpoint: seed 9, round 2/4, 3 clients — resume with specdag -resume\n",
		"golden_async_v2.sdc": "async simulation checkpoint: seed 9, event 3 (horizon 8s, in flight), 3 clients, ",
		"golden_async_v3.sdc": "async simulation checkpoint: seed 9, event 3 (horizon 8s, in flight), 3 clients, ",
	} {
		path := "../../internal/core/testdata/" + file
		flag.CommandLine = flag.NewFlagSet("dagstat", flag.ContinueOnError)
		os.Args = []string{"dagstat", "-in", path}
		got := captureStdout(t, run)
		if !strings.HasPrefix(got, want) || !strings.Contains(got, "\nsnapshot: "+path+"\ntransactions: ") {
			t.Errorf("dagstat -in %s:\n%s\nwant it to start %q and go on to the tangle", file, got, want)
		}
	}
}
