package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/lint/linttest"
	"github.com/specdag/specdag/internal/mathx"
	"github.com/specdag/specdag/internal/serve"
)

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		addr    string
		cfg     serve.Config
		grace   time.Duration
		help    bool
		errHas  string
		isUsage bool
	}{
		{name: "defaults", addr: "127.0.0.1:9477", cfg: serve.Config{CheckpointEvery: 25}, grace: 30 * time.Second},
		{name: "every flag lands in its field",
			args: []string{"-addr", ":1", "-workers", "3", "-ring", "64", "-checkpoint-every", "7", "-quantum", "2",
				"-dir", "state", "-grace", "5s", "-spill-dir", "spill", "-max-runs", "9", "-max-runs-per-tenant", "4"},
			addr: ":1", grace: 5 * time.Second,
			cfg: serve.Config{Workers: 3, Ring: 64, CheckpointEvery: 7, Quantum: 2, Dir: "state", SpillDir: "spill", MaxRuns: 9, MaxRunsPerTenant: 4}},
		{name: "help", args: []string{"-h"}, help: true},
		{name: "unknown flag", args: []string{"-wrokers", "2"}, errHas: "-wrokers"},
		{name: "negative workers", args: []string{"-workers", "-3"}, errHas: "-workers must not be negative, got -3"},
		{name: "negative ring", args: []string{"-ring", "-1"}, errHas: "-ring must not be negative"},
		{name: "negative quantum", args: []string{"-quantum", "-1"}, errHas: "-quantum must not be negative"},
		{name: "negative max-runs", args: []string{"-max-runs", "-1"}, errHas: "-max-runs must not be negative"},
		{name: "negative max-runs-per-tenant", args: []string{"-max-runs-per-tenant", "-1"}, errHas: "-max-runs-per-tenant must not be negative"},
		{name: "zero checkpoint-every", args: []string{"-checkpoint-every", "0"}, errHas: "-checkpoint-every must be at least 1, got 0"},
		{name: "negative checkpoint-every", args: []string{"-checkpoint-every", "-3"}, errHas: "-checkpoint-every must be at least 1, got -3"},
		{name: "zero grace", args: []string{"-grace", "0s"}, errHas: "-grace must be positive, got 0s"},
		{name: "negative grace", args: []string{"-grace", "-1s"}, errHas: "-grace must be positive, got -1s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, cfg, grace, err := parseFlags(tc.args)
			switch {
			case tc.help:
				// main exits 0 on exactly this error.
				if !errors.Is(err, flag.ErrHelp) {
					t.Fatalf("err = %v, want flag.ErrHelp", err)
				}
			case tc.errHas != "":
				// Every other error is main's exit 2.
				if err == nil || errors.Is(err, flag.ErrHelp) || !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("err = %v, want a usage error naming %q", err, tc.errHas)
				}
			case err != nil:
				t.Fatal(err)
			case addr != tc.addr || cfg != tc.cfg || grace != tc.grace:
				t.Errorf("parsed (%q, %+v, %v), want (%q, %+v, %v)", addr, cfg, grace, tc.addr, tc.cfg, tc.grace)
			}
		})
	}
}

// daemon is one boot of run on a loopback port.
type daemon struct {
	url  string
	stop context.CancelFunc
	done chan error
}

func boot(t *testing.T, dir string) *daemon {
	t.Helper()
	_, cfg, grace, err := parseFlags([]string{"-dir", dir, "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	d := &daemon{url: "http://" + ln.Addr().String(), stop: stop, done: make(chan error, 1)}
	go func() { d.done <- run(ctx, ln, cfg, grace) }()
	t.Cleanup(func() { d.shutdown(t) })
	return d
}

// shutdown is the SIGTERM path: end the context, wait for run to return.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	if d.done == nil {
		return
	}
	d.stop()
	if err := <-d.done; err != nil {
		t.Errorf("run: %v", err)
	}
	d.done = nil
}

// status decodes a run's status from the given request.
func (d *daemon) status(t *testing.T, method, path, body string) serve.RunStatus {
	t.Helper()
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.RunStatus
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: %s", method, path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return st
}

// dagstat reports on an artifact the way an operator reads it, through the
// inspector's command line: a main package cannot be imported, so it runs
// under the go command, which caches the linked binary. The packages it
// links are this test's too; its own source is opened so a change to it
// reruns the test.
func dagstat(t *testing.T, path string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("runs cmd/dagstat through the go toolchain; skipped in -short mode")
	}
	linttest.DependOnSources(t, "../dagstat")
	out, err := exec.Command("go", "run", "../dagstat", "-in", path).CombinedOutput()
	if err != nil {
		t.Fatalf("dagstat -in %s: %v\n%s", path, err, out)
	}
	return string(out)
}

// TestEventsStreamToEnd: GET /runs/{id}/events?from=0 answers a run's whole
// SDE2 log, blocking until its End frame, and dagstat reads the download as
// a run that completed every round.
func TestEventsStreamToEnd(t *testing.T) {
	d := boot(t, t.TempDir())
	d.status(t, "POST", "/runs", `{"dataset":"fmnist","seed":1,"rounds":6,"clients_per_round":2,"label":"smoke"}`)
	resp, err := http.Get(d.url + "/runs/1/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/1/events: %s", resp.Status)
	}
	sde, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.sde")
	if err := os.WriteFile(path, sde, 0o644); err != nil {
		t.Fatal(err)
	}
	if out := dagstat(t, path); !strings.Contains(out, "\noutcome: completed after 6 steps\n") {
		t.Errorf("dagstat on the streamed log:\n%s\nwant it completed after 6 steps", out)
	}
}

// TestPauseResume: POST pause stops a running run at a unit boundary and
// leaves it paused on a checkpoint, no longer stepping; POST resume sets it
// running again.
func TestPauseResume(t *testing.T) {
	d := boot(t, t.TempDir())
	d.status(t, "POST", "/runs", `{"dataset":"fmnist","seed":7,"rounds":5000,"clients_per_round":2,"label":"pausable"}`)
	paused := d.status(t, "POST", "/runs/1/pause", "")
	if paused.State != "paused" || !paused.HasCheckpoint {
		t.Fatalf("paused run: %+v, want it paused with its checkpoint", paused)
	}
	time.Sleep(100 * time.Millisecond)
	if st := d.status(t, "GET", "/runs/1", ""); st.State != "paused" || st.Steps != paused.Steps {
		t.Errorf("run 100 ms after its pause: %s at step %d, want paused at step %d", st.State, st.Steps, paused.Steps)
	}
	if st := d.status(t, "POST", "/runs/1/resume", ""); st.State != "running" {
		t.Errorf("resumed run: %+v, want it running", st)
	}
	d.status(t, "POST", "/runs/1/cancel", "")
}

// persistedRun reads what the state directory holds of run 1: its manifest
// entry and the units of the checkpoint file the entry names.
func persistedRun(dir string) (state string, step, units int, err error) {
	blob, err := os.ReadFile(filepath.Join(dir, "runs.json"))
	if err != nil {
		return "", 0, 0, err
	}
	var m struct {
		Runs []struct {
			ID             int    `json:"id"`
			State          string `json:"state"`
			CheckpointFile string `json:"checkpoint_file"`
			CheckpointStep int    `json:"checkpoint_step"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		return "", 0, 0, err
	}
	if len(m.Runs) != 1 || m.Runs[0].ID != 1 || m.Runs[0].CheckpointFile == "" {
		return "", 0, 0, fmt.Errorf("manifest %s names no checkpoint of run 1", blob)
	}
	e := m.Runs[0]
	f, err := os.Open(filepath.Join(dir, e.CheckpointFile))
	if err != nil {
		return "", 0, 0, err // replaced by a newer checkpoint since the read
	}
	defer f.Close()
	info, _, err := core.InspectCheckpoint(f)
	if err != nil {
		return "", 0, 0, err
	}
	return e.State, e.CheckpointStep, info.Round, nil
}

// TestRunPersistsAndRestores: a running run's cadence checkpoints reach the
// state directory as they are taken, named by a manifest that lists the run
// running; a run in flight when the daemon is told to stop is paused to a
// checkpoint, and the next boot on the same state directory brings it back
// paused.
func TestRunPersistsAndRestores(t *testing.T) {
	dir := t.TempDir()
	first := boot(t, dir)
	st := first.status(t, "POST", "/runs", `{"dataset":"fmnist","seed":7,"rounds":5000,"clients_per_round":2,"label":"pausable"}`)
	if st.ID != 1 {
		t.Fatalf("submitted run has id %d, want 1", st.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		state, step, units, err := persistedRun(dir)
		if err == nil {
			if state != "running" || step < 1 || units != step {
				t.Fatalf("before shutdown the manifest lists run 1 %s at checkpoint step %d, its file holds %d units", state, step, units)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint of the running run on disk within 30 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	first.shutdown(t)
	if _, err := os.Stat(filepath.Join(dir, "runs.json")); err != nil {
		t.Fatalf("no manifest after shutdown: %v", err)
	}

	second := boot(t, dir)
	if st := second.status(t, "GET", "/runs/1", ""); st.State != "paused" || st.Label != "pausable" || !st.HasCheckpoint {
		t.Errorf("restored run: %+v, want it paused with its checkpoint", st)
	}
	second.status(t, "POST", "/runs/1/cancel", "")
}

// TestStartupLine pins the format operators and log scrapers read: address,
// budget, and which kernels the process runs.
func TestStartupLine(t *testing.T) {
	addr := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 8080}
	got := startupLine(addr, 2)
	want := "specdagd listening on 127.0.0.1:8080 (workers=2, kernels=" + mathx.Backend() + ")"
	if got != want {
		t.Errorf("startup line %q, want %q", got, want)
	}
	if b := mathx.Backend(); !slices.Contains([]string{"avx512+fma", "avx512", "avx2+fma", "avx2", "generic"}, b) {
		t.Errorf("mathx.Backend() = %q, want avx512+fma, avx512, avx2+fma, avx2 or generic", b)
	}
}
