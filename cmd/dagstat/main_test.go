package main

import (
	"bytes"
	"cmp"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/serve"
	"github.com/specdag/specdag/internal/wire"
)

// TestEventLogStats pins the report for an event log as cmd/specdag -events
// and specdagd both write it: one start-frame key set (RunRequest.Info) for
// either engine, listed in sorted order.
func TestEventLogStats(t *testing.T) {
	req := serve.RunRequest{
		Dataset: "fmnist", Preset: "quick", Seed: 42, Selector: "accuracy", Alpha: 10, Norm: "standard",
		DepthMax: 4, CompactWidth: 5, Async: true, Duration: 20, MinCycle: 1, MaxCycle: 8, NetDelay: 0.5,
	}
	var buf bytes.Buffer
	log, err := wire.NewEventLog(&buf, req.Info())
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

	var out bytes.Buffer
	if err := eventLogStats(&out, "run.sde", &buf); err != nil {
		t.Fatal(err)
	}
	got := out.String()
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

// TestEventLogReport: dagstat -in sniffs an event log written through
// wire.NewEventLog and reports it; a log of the retired gob generation
// (SDE1) is named as older, not misread.
func TestEventLogReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.sde")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wire.NewEventLog(f, wire.RunInfo{Engine: "specdag", Label: "l", Seed: 7, Config: map[string]string{"rounds": "2"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		log.Hooks().OnRound(engine.RoundEvent{Engine: "specdag", Round: i})
	}
	log.End(2, true, nil)
	if err := cmp.Or(log.Err(), f.Close()); err != nil {
		t.Fatal(err)
	}
	dagstat := func(path string) (string, error) {
		var out bytes.Buffer
		err := run([]string{"-in", path}, &out)
		return out.String(), err
	}
	want := "event log: " + path + "\nrun: engine specdag, seed 7, label \"l\"\n  rounds = 2\nframes: 4, indices [0, 3]\n  start      1\n  round      2\n  end        1\noutcome: completed after 2 steps\n"
	if got, err := dagstat(path); err != nil || got != want {
		t.Errorf("dagstat -in run.sde: %v\n%s\nwant:\n%s", err, got, want)
	}
	old := filepath.Join(t.TempDir(), "old.sde")
	if err := os.WriteFile(old, []byte("SDE1 gob frames"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dagstat(old); err == nil || !strings.Contains(err.Error(), `"SDE1" is an older event-stream generation`) {
		t.Errorf("dagstat -in an SDE1 log: %v, want the older-generation error", err)
	}
}

// TestCheckpointReport: dagstat opens a checkpoint of either kind — core's
// committed SDC3/SDA3 fixtures — and names its kind and resume point before
// the tangle statistics.
func TestCheckpointReport(t *testing.T) {
	for file, want := range map[string]string{
		"golden_sync_v3.sdc":  "simulation checkpoint: seed 9, round 2/4, 3 clients — resume with specdag -resume\n",
		"golden_async_v3.sdc": "async simulation checkpoint: seed 9, event 3 (horizon 8s, in flight), 3 clients, ",
	} {
		path := "../../internal/core/testdata/" + file
		var out bytes.Buffer
		if err := run([]string{"-in", path}, &out); err != nil {
			t.Fatalf("dagstat -in %s: %v", file, err)
		}
		if got := out.String(); !strings.HasPrefix(got, want) || !strings.Contains(got, "\nsnapshot: "+path+"\ntransactions: ") {
			t.Errorf("dagstat -in %s:\n%s\nwant it to start %q and go on to the tangle", file, got, want)
		}
	}
}

// TestNegativeTopIsAnError: -top -1 is refused by name before the file is
// read, instead of slicing the heaviest-transactions table out of range.
func TestNegativeTopIsAnError(t *testing.T) {
	err := run([]string{"-in", "../../internal/core/testdata/golden_sync_v3.sdc", "-top", "-1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-top must not be negative, got -1") {
		t.Fatalf("dagstat -top -1: %v, want an error naming -top", err)
	}
}
