package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// TestRunPersistsAndRestores is the CI daemon smoke in Go: a run in flight
// when the daemon is told to stop is paused to a checkpoint and persisted,
// and the next boot on the same state directory brings it back paused.
func TestRunPersistsAndRestores(t *testing.T) {
	dir := t.TempDir()
	first := boot(t, dir)
	st := first.status(t, "POST", "/runs", `{"dataset":"fmnist","seed":7,"rounds":5000,"clients_per_round":2,"label":"pausable"}`)
	if st.ID != 1 {
		t.Fatalf("submitted run has id %d, want 1", st.ID)
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
	if b := mathx.Backend(); b != "avx2+fma" && b != "avx2" && b != "generic" {
		t.Errorf("mathx.Backend() = %q, want avx2+fma, avx2 or generic", b)
	}
}
