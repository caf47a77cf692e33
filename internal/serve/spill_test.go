package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/wire"
)

// TestSpillReplayEquivalence pins snapshot-free overrun recovery: with a
// 1-slot ring — every frame overwritten almost immediately — and a spill
// directory, a subscriber following the run from index 0 still receives a
// stream field-for-field identical to an uninterrupted local run, with no
// Gap frame ever emitted (the server replays the overwritten ranges from the
// spill file).
func TestSpillReplayEquivalence(t *testing.T) {
	spillDir := t.TempDir()
	req := RunRequest{Dataset: "fmnist", Seed: 17, Rounds: 6, ClientsPerRound: 2, Workers: 2, CheckpointEvery: 2, Label: "spill"}
	s := NewServer(Config{Workers: 4, Ring: 1, SpillDir: spillDir})
	want := localReference(t, s, req)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Subscribe immediately, mid-run: with a single-slot ring the cursor is
	// lapped over and over, so the stream is stitched from many replays.
	got := &recorder{}
	gaps := 0
	end, err := Subscribe(context.Background(), ts.URL, id, SubscribeOptions{
		Hooks: got.hooks(),
		OnGap: func(wire.Gap) { gaps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !end.Completed || end.Steps != req.Rounds {
		t.Fatalf("end frame %+v, want %d completed steps", end, req.Rounds)
	}
	if gaps != 0 {
		t.Fatalf("subscriber saw %d gap frames despite the spill file", gaps)
	}
	mustEqualEvents(t, got, want)

	// The spill file is a complete standalone SDE2 log of the run.
	blob, err := os.ReadFile(filepath.Join(spillDir, "run-1.sde"))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := wire.ReadAll(strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 || frames[0].Kind != wire.KindStart || frames[len(frames)-1].Kind != wire.KindEnd {
		t.Fatalf("spill file holds %d frames, want a Start…End log", len(frames))
	}
	for i, f := range frames {
		if f.Index != uint64(i) {
			t.Fatalf("spill frame %d carries index %d — the file is not the contiguous log", i, f.Index)
		}
	}
}

// TestLongLabelStreams: a run whose label is 64 KiB — a request body may
// carry that much — streams live through a 1-slot ring, so its Start frame
// is replayed from the spill file, and reads back whole from the stream and
// from the file.
func TestLongLabelStreams(t *testing.T) {
	spillDir := t.TempDir()
	label := strings.Repeat("l", 64<<10)
	s := NewServer(Config{Workers: 2, Ring: 1, SpillDir: spillDir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, err := s.Submit(RunRequest{Dataset: "fmnist", Seed: 17, Rounds: 3, ClientsPerRound: 2, Workers: 2, Label: label})
	if err != nil {
		t.Fatal(err)
	}
	var start *wire.RunInfo
	gaps := 0
	end, err := Subscribe(context.Background(), ts.URL, id, SubscribeOptions{
		OnFrame: func(f wire.Frame) {
			if f.Kind == wire.KindStart {
				start = f.Start
			}
		},
		OnGap: func(wire.Gap) { gaps++ },
	})
	if err != nil || !end.Completed || gaps != 0 {
		t.Fatalf("subscribe: end %+v, %d gaps, %v", end, gaps, err)
	}
	if start == nil || start.Label != label {
		t.Fatal("the streamed Start frame does not carry the label")
	}
	f, err := os.Open(filepath.Join(spillDir, "run-1.sde"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frames, err := wire.ReadAll(f)
	if err != nil || len(frames) == 0 || frames[0].Start == nil || frames[0].Start.Label != label {
		t.Fatalf("the spill file reads back %d frames (%v) without the label", len(frames), err)
	}
}

// TestReplayGapFallsBackWithoutSpill pins that a broadcaster without a spill
// file reports "cannot replay" rather than erroring, and that the HTTP layer
// then still emits the Gap frame (drop semantics preserved).
func TestReplayGapFallsBackWithoutSpill(t *testing.T) {
	b := NewBroadcaster(4, 0)
	replayed, err := b.ReplayGap(0, 2, func(*wire.Frame) error { return nil })
	if replayed || err != nil {
		t.Fatalf("ReplayGap without spill = (%v, %v), want (false, nil)", replayed, err)
	}
}

// TestQuotaTooManyRuns pins the submit caps: a server at MaxRuns answers 429
// with Retry-After until an active run settles; MaxRunsPerTenant isolates
// tenants from each other.
func TestQuotaTooManyRuns(t *testing.T) {
	long := RunRequest{Dataset: "fmnist", Seed: 51, Rounds: 500, ClientsPerRound: 2, Workers: 2}

	t.Run("server-wide", func(t *testing.T) {
		s := NewServer(Config{Workers: 4, MaxRuns: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		id, err := s.Submit(long)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(long); err == nil || !strings.Contains(err.Error(), "quota") {
			t.Fatalf("second submit at MaxRuns=1: got %v, want a quota error", err)
		}
		resp, err := http.Post(ts.URL+"/runs", "application/json",
			strings.NewReader(`{"dataset":"fmnist","seed":52,"rounds":2,"clients_per_round":2,"workers":2}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit over quota: %s, want 429", resp.Status)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 response carries no Retry-After")
		}
		// The quota answers before the request is built: a full server says
		// 429 even to a request it would otherwise reject as malformed, and
		// pays for no dataset on the way.
		resp, err = http.Post(ts.URL+"/runs", "application/json", strings.NewReader(`{"dataset":"no-such-dataset"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("malformed submit over quota: %s, want 429 before validation", resp.Status)
		}
		// Settling the active run frees the slot.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := s.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
		waitState(t, s, id, func(st RunStatus) bool { return st.State == StateCanceled })
		if _, err := s.Submit(RunRequest{Dataset: "fmnist", Seed: 53, Rounds: 2, ClientsPerRound: 2, Workers: 2}); err != nil {
			t.Fatalf("submit after the quota freed: %v", err)
		}
	})

	t.Run("per-tenant", func(t *testing.T) {
		s := NewServer(Config{Workers: 4, MaxRunsPerTenant: 1})
		a := long
		a.Tenant = "alice"
		if _, err := s.Submit(a); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(a); err == nil || !strings.Contains(err.Error(), `"alice"`) {
			t.Fatalf("second submit for alice: got %v, want her quota error", err)
		}
		b := long
		b.Seed = 54
		b.Tenant = "bob"
		if _, err := s.Submit(b); err != nil {
			t.Fatalf("bob blocked by alice's quota: %v", err)
		}
	})
}
