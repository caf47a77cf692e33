package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/wire"
)

// recorder collects hook events for field-for-field comparison.
type recorder struct {
	mu     sync.Mutex
	rounds []engine.RoundEvent
	pubs   []engine.PublishEvent
	probes []engine.ProbeEvent
}

func (r *recorder) hooks() engine.Hooks {
	return engine.Hooks{
		OnRound: func(ev engine.RoundEvent) {
			r.mu.Lock()
			r.rounds = append(r.rounds, ev)
			r.mu.Unlock()
		},
		OnPublish: func(ev engine.PublishEvent) {
			r.mu.Lock()
			r.pubs = append(r.pubs, ev)
			r.mu.Unlock()
		},
		OnProbe: func(ev engine.ProbeEvent) {
			r.mu.Lock()
			r.probes = append(r.probes, ev)
			r.mu.Unlock()
		},
	}
}

// mustEqualEvents compares two recorded event sequences field-for-field,
// including the interface-typed Detail payloads.
func mustEqualEvents(t *testing.T, got, want *recorder) {
	t.Helper()
	if len(got.rounds) != len(want.rounds) {
		t.Fatalf("got %d round events, want %d", len(got.rounds), len(want.rounds))
	}
	for i := range want.rounds {
		if !reflect.DeepEqual(got.rounds[i], want.rounds[i]) {
			t.Fatalf("round event %d diverged:\n got %+v\nwant %+v", i, got.rounds[i], want.rounds[i])
		}
	}
	if !reflect.DeepEqual(got.pubs, want.pubs) {
		t.Fatalf("publish events diverged:\n got %+v\nwant %+v", got.pubs, want.pubs)
	}
	if !reflect.DeepEqual(got.probes, want.probes) {
		t.Fatalf("probe events diverged: got %+v want %+v", got.probes, want.probes)
	}
}

// localReference runs the same request's engine in-process and records the
// events a local engine.Hooks observer sees.
func localReference(t *testing.T, s *Server, req RunRequest) *recorder {
	t.Helper()
	req.normalize()
	eng, err := s.buildEngine(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	if _, err := engine.Run(context.Background(), eng, engine.WithHooks(rec.hooks())); err != nil {
		t.Fatal(err)
	}
	return rec
}

// waitState polls a run's status until pred holds (the hosted run advances
// on its own goroutine).
func waitState(t *testing.T, s *Server, id int, pred func(RunStatus) bool) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := s.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		st := r.status()
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %d stuck at %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubscribeEquivalence is the acceptance-criteria round trip: events
// decoded via Subscribe must be field-for-field identical to the events a
// local engine.Hooks observer receives for the same seeded run — including
// across a disconnect/reconnect at an arbitrary event index.
func TestSubscribeEquivalence(t *testing.T) {
	req := RunRequest{Dataset: "fmnist", Seed: 11, Rounds: 6, ClientsPerRound: 2, Workers: 2, CheckpointEvery: 2, Label: "eq"}
	s := NewServer(Config{Workers: 4})
	want := localReference(t, s, req)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// First connection: drop it deliberately after a handful of frames —
	// mid-stream, at no special boundary.
	const cutAfter = 5
	got := &recorder{}
	frames := 0
	var next uint64
	ctx, cancel := context.WithCancel(context.Background())
	_, err = Subscribe(ctx, ts.URL, id, SubscribeOptions{
		Hooks:      got.hooks(),
		Reconnects: -1, // make the disconnect terminal so the test controls the resume
		OnFrame: func(f wire.Frame) {
			frames++
			next = f.Index + 1
			if frames == cutAfter {
				cancel()
			}
		},
	})
	cancel()
	if err == nil {
		t.Fatal("first connection was not cut")
	}

	// Reconnect from the exact next index; the combined replay must equal
	// the local observation with no duplicated or missing events.
	end, err := Subscribe(context.Background(), ts.URL, id, SubscribeOptions{Hooks: got.hooks(), From: next})
	if err != nil {
		t.Fatal(err)
	}
	if !end.Completed || end.Steps != 6 {
		t.Fatalf("end frame %+v, want 6 completed steps", end)
	}
	mustEqualEvents(t, got, want)

	// The Detail payloads must arrive as their concrete engine types.
	if _, ok := got.rounds[0].Detail.(*core.RoundResult); !ok {
		t.Fatalf("remote Detail decoded as %T, want *core.RoundResult", got.rounds[0].Detail)
	}
}

// TestSubscribeEquivalenceAsync runs the same round trip against the
// event-driven engine (simulated-time units, *core.AsyncEvent details).
func TestSubscribeEquivalenceAsync(t *testing.T) {
	req := RunRequest{Dataset: "fmnist", Seed: 5, Async: true, Duration: 5, MinCycle: 1, MaxCycle: 4, Workers: 2, Label: "async-eq"}
	s := NewServer(Config{Workers: 4})
	want := localReference(t, s, req)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := &recorder{}
	if _, err := Subscribe(context.Background(), ts.URL, id, SubscribeOptions{Hooks: got.hooks()}); err != nil {
		t.Fatal(err)
	}
	mustEqualEvents(t, got, want)
	if len(got.rounds) == 0 {
		t.Fatal("async run produced no events")
	}
	if _, ok := got.rounds[0].Detail.(*core.AsyncEvent); !ok {
		t.Fatalf("remote Detail decoded as %T, want *core.AsyncEvent", got.rounds[0].Detail)
	}
}

// checkpointSteps walks a stretch of a run's event log, given the number of
// Round frames before it, and checks that every Checkpoint frame is stamped
// with the number of Round frames before it in the run's whole log — units
// the run has completed, not units since its engine was last rebuilt. It
// returns the Round frame count at the end of the stretch.
func checkpointSteps(t *testing.T, frames []wire.Frame, rounds int) int {
	t.Helper()
	for _, f := range frames {
		switch f.Kind {
		case wire.KindRound:
			rounds++
		case wire.KindCheckpoint:
			if f.Checkpoint.Step != rounds {
				t.Fatalf("checkpoint frame %d is stamped step %d after %d completed units", f.Index, f.Checkpoint.Step, rounds)
			}
		}
	}
	return rounds
}

// checkpointUnits downloads a run's latest checkpoint and returns the number
// of units the blob itself says it holds.
func checkpointUnits(t *testing.T, baseURL string, id int) (*core.CheckpointInfo, int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/runs/" + strconv.Itoa(id) + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint of run %d: %s", id, resp.Status)
	}
	info, _, err := core.InspectCheckpoint(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind == "async" {
		return info, info.Events
	}
	return info, info.Round
}

// TestPauseResumeEquivalence pins that pause-to-checkpoint + resume leaves
// the served event stream identical to an uninterrupted run's: same events,
// each exactly once, across the pause point — for the round engine and for
// the event engine in the shape the daemon is benchmarked hosting (a
// depth-banded walk over a compacting tangle), paused after epochs froze.
// Resume rebuilds the engine from the checkpoint, so this is also the
// restart path's equivalence.
func TestPauseResumeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		req     RunRequest
		pauseAt int // pause once this many units completed
		units   int // units of the whole run
		frozen  bool
	}{
		{name: "rounds", pauseAt: 2, units: 40, // long enough that a starved poller still finds it running
			req: RunRequest{Dataset: "fmnist", Seed: 23, Rounds: 40, ClientsPerRound: 2, Workers: 2, CheckpointEvery: 3, Label: "pr"}},
		{name: "async compacting", pauseAt: 200, frozen: true,
			req: RunRequest{Dataset: "fmnist", Seed: 29, Async: true, Duration: 12, MinCycle: 0.5, MaxCycle: 2, NetDelay: 0.1,
				DepthMin: 3, DepthMax: 6, CompactWidth: 2, CompactLive: 2, Workers: 2, CheckpointEvery: 32, Label: "pr-async"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(Config{Workers: 4})
			want := localReference(t, s, tc.req)
			if tc.units == 0 {
				tc.units = len(want.rounds)
			}

			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			id, err := s.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, s, id, func(st RunStatus) bool { return st.Steps >= tc.pauseAt || st.State != StateRunning })

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			ckptIndex, err := s.Pause(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			st := waitState(t, s, id, func(st RunStatus) bool { return st.State == StatePaused })
			if !st.HasCheckpoint || st.CheckpointIndex != ckptIndex {
				t.Fatalf("paused status %+v does not carry checkpoint index %d", st, ckptIndex)
			}
			if st.Steps >= tc.units {
				t.Fatalf("run finished (%d steps) before pause — widen the window", st.Steps)
			}
			info, units := checkpointUnits(t, ts.URL, id)
			if units != st.Steps || st.CheckpointStep != st.Steps {
				t.Fatalf("pause checkpoint holds %d units, status %+v", units, st)
			}
			if tc.frozen && info.FrozenEpochs == 0 {
				t.Fatalf("paused at %d units before any epoch froze — pause later", st.Steps)
			}
			if err := s.Resume(id); err != nil {
				t.Fatal(err)
			}

			got := &recorder{}
			var frames []wire.Frame
			end, err := Subscribe(context.Background(), ts.URL, id, SubscribeOptions{
				Hooks:   got.hooks(),
				OnFrame: func(f wire.Frame) { frames = append(frames, f) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if !end.Completed || end.Steps != tc.units {
				t.Fatalf("end frame %+v, want %d completed steps", end, tc.units)
			}
			mustEqualEvents(t, got, want)

			// The cadence checkpoints of the rebuilt engine count the run's
			// units, and the blob the run ends with is the one its status names.
			if n := checkpointSteps(t, frames, 0); n != tc.units {
				t.Fatalf("log holds %d round frames, want %d", n, tc.units)
			}
			final := waitState(t, s, id, func(st RunStatus) bool { return st.State == StateDone })
			if tc.units-st.Steps >= tc.req.CheckpointEvery && final.CheckpointStep <= st.Steps {
				t.Fatalf("no cadence checkpoint after the resume at %d units: %+v", st.Steps, final)
			}
			if _, units := checkpointUnits(t, ts.URL, id); units != final.CheckpointStep {
				t.Fatalf("final checkpoint holds %d units, status says %d", units, final.CheckpointStep)
			}
		})
	}
}

// TestHTTPLifecycle walks the HTTP surface end to end: submit, status,
// list, error statuses for bad requests, 416 beyond the log head, cancel.
func TestHTTPLifecycle(t *testing.T) {
	s := NewServer(Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [4096]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [4096]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}

	if resp, _ := post("/runs", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %s", resp.Status)
	}
	if resp, body := post("/runs", `{"dataset":"nope","seed":1}`); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown dataset") {
		t.Fatalf("unknown dataset: %s %s", resp.Status, body)
	}
	if resp, _ := post("/runs", `{"dataset":"fmnist","seed":1,"bogus":true}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %s", resp.Status)
	}
	// A depth band no walk can enter would run as a genesis-anchored
	// experiment nobody asked for: refused like any other bad name or value.
	for body, want := range map[string]string{
		`{"dataset":"fmnist","seed":1,"async":true,"depth_min":20,"depth_max":10}`: "depth-min 20 exceeds depth-max 10",
		`{"dataset":"fmnist","seed":1,"depth_min":5}`:                              "depth-min 5 needs a depth-max",
		`{"dataset":"fmnist","seed":1,"depth_max":-2}`:                             "must not be negative",
	} {
		if resp, msg := post("/runs", body); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Fatalf("depth band %s: %s %s, want 400 mentioning %q", body, resp.Status, msg, want)
		}
	}
	if resp, _ := get("/runs/7"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %s", resp.Status)
	}

	resp, body := post("/runs", `{"dataset":"fmnist","seed":3,"rounds":2,"clients_per_round":2,"workers":2,"label":"http"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s %s", resp.Status, body)
	}
	var st RunStatus
	if err := json.Unmarshal(body, &st); err != nil || st.ID == 0 {
		t.Fatalf("submit body %q: %v", body, err)
	}

	waitState(t, s, st.ID, func(st RunStatus) bool { return st.State == StateDone })
	resp, body = get("/runs/1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %s", resp.Status)
	}
	if err := json.Unmarshal(body, &st); err != nil || st.State != StateDone || st.Steps != 2 {
		t.Fatalf("final status %s: %v", body, err)
	}

	if resp, _ = get("/runs"); resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %s", resp.Status)
	}
	if resp, _ = get("/runs/1/events?from=99999"); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("beyond head: %s, want 416", resp.Status)
	}
	if resp, _ = post("/runs/1/pause", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("pause done run: %s, want 409", resp.Status)
	}

	// Cancel a second, longer run and observe the canceled End frame.
	resp, body = post("/runs", `{"dataset":"fmnist","seed":4,"rounds":500,"clients_per_round":2,"workers":2}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit long run: %s %s", resp.Status, body)
	}
	json.Unmarshal(body, &st)
	if resp, _ = post("/runs/2/cancel", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	end, err := Subscribe(context.Background(), ts.URL, st.ID, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if end.Completed || end.Err != "canceled" {
		t.Fatalf("canceled end frame %+v", end)
	}
}

// TestGapFrameOnSlowHTTPSubscriber pins the served form of drop semantics:
// a subscriber that asks for long-gone indices gets a Gap frame naming the
// missed range (and the checkpoint to resume from), then the live tail.
func TestGapFrameOnSlowHTTPSubscriber(t *testing.T) {
	// A tiny ring forces the gap without a slow reader: by the time the run
	// finishes, early indices are long overwritten.
	s := NewServer(Config{Workers: 4, Ring: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, err := s.Submit(RunRequest{Dataset: "fmnist", Seed: 9, Rounds: 6, ClientsPerRound: 2, Workers: 2, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, func(st RunStatus) bool { return st.State == StateDone })

	var gotGap *wire.Gap
	var after []uint64
	_, err = Subscribe(context.Background(), ts.URL, id, SubscribeOptions{
		OnGap: func(g wire.Gap) { gotGap = &g },
		OnFrame: func(f wire.Frame) {
			if f.Kind != wire.KindGap {
				after = append(after, f.Index)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotGap == nil {
		t.Fatal("no gap frame for a subscriber behind the ring")
	}
	if gotGap.From != 0 || gotGap.To == 0 {
		t.Fatalf("gap %+v does not name the missed range", gotGap)
	}
	if gotGap.CheckpointIndex == 0 {
		t.Fatal("gap frame does not point at a checkpoint to resume from")
	}
	if len(after) == 0 || after[0] != gotGap.To {
		t.Fatalf("stream after gap starts at %v, want %d", after, gotGap.To)
	}
}

// TestShutdownRestore pins the daemon lifecycle: Shutdown pauses running
// runs to checkpoints and persists them; a new server over the same
// directory restores them and Resume carries the run to completion.
func TestShutdownRestore(t *testing.T) {
	dir := t.TempDir()
	s1 := NewServer(Config{Workers: 4, CheckpointEvery: 3, Dir: dir})
	req := RunRequest{Dataset: "fmnist", Seed: 31, Rounds: 30, ClientsPerRound: 2, Workers: 2, Label: "restore"}
	id, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, id, func(st RunStatus) bool { return st.Steps >= 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	r1, err := s1.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	// Persistence goes temp file → sync → rename: what is left is exactly the
	// manifest and the paused run's checkpoint, never a partial file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{fmt.Sprintf("run-1-%d.sdc", r1.status().CheckpointIndex), "runs.json"}; !slices.Equal(names, want) {
		t.Fatalf("persisted files %v, want %v", names, want)
	}
	// The first process's stretch of the log, up to the pause checkpoint: the
	// second process carries the unit count on from here.
	var before []wire.Frame
	for sub := r1.b.Subscribe(0); sub.Cursor() < r1.b.NextIndex(); {
		f, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, f)
	}
	paused := checkpointSteps(t, before, 0)
	if st := r1.status(); st.State != StatePaused || st.Steps != paused || st.CheckpointStep != paused {
		t.Fatalf("shut-down run %+v, its log holds %d round frames", st, paused)
	}

	s2 := NewServer(Config{Workers: 4, CheckpointEvery: 3, Dir: dir})
	n, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d runs, want 1", n)
	}
	st := waitState(t, s2, id, func(st RunStatus) bool { return st.State == StatePaused })
	if !st.HasCheckpoint || st.Label != "restore" {
		t.Fatalf("restored status %+v", st)
	}
	if err := s2.Resume(id); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	var after []wire.Frame
	end, err := Subscribe(context.Background(), ts.URL, id, SubscribeOptions{
		From:    st.CheckpointIndex,
		OnFrame: func(f wire.Frame) { after = append(after, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !end.Completed {
		t.Fatalf("restored run did not complete: %+v", end)
	}
	final := waitState(t, s2, id, func(st RunStatus) bool { return st.State == StateDone })
	if final.Steps != req.Rounds {
		t.Fatalf("restored run finished at %d steps, want %d", final.Steps, req.Rounds)
	}
	// The rebuilt run's cadence checkpoints count the run's units, not the
	// second process's, and the blob it ends with is the one its status names.
	if n := checkpointSteps(t, after, paused); n != req.Rounds {
		t.Fatalf("the two processes logged %d round frames, want %d", n, req.Rounds)
	}
	if final.CheckpointStep <= paused {
		t.Fatalf("no cadence checkpoint after the restore at %d units: %+v", paused, final)
	}
	if _, units := checkpointUnits(t, ts.URL, id); units != final.CheckpointStep {
		t.Fatalf("final checkpoint holds %d units, status says %d", units, final.CheckpointStep)
	}
}

// lastEnd returns the End frame that closes a run's log.
func lastEnd(t *testing.T, r *run) wire.End {
	t.Helper()
	f, err := r.b.Subscribe(r.b.NextIndex() - 1).Next(context.Background())
	if err != nil || f.Kind != wire.KindEnd || !r.b.Closed() {
		t.Fatalf("run %d: last frame %+v, %v, want the End of a closed log", r.id, f, err)
	}
	return *f.End
}

// TestShutdownRestoreTerminalRuns: a run that had ended — one completed, one
// canceled — comes back from Shutdown → Restore as it ended: the same state,
// steps and error in its status, and the same End frame closing its log. A
// manifest written before runs' errors were kept restores a completed run as
// completed and any other as terminated before the restart.
func TestShutdownRestoreTerminalRuns(t *testing.T) {
	dir := t.TempDir()
	s1 := NewServer(Config{Workers: 2, Dir: dir})
	done, err := s1.Submit(RunRequest{Dataset: "fmnist", Seed: 6, Rounds: 2, ClientsPerRound: 2})
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := s1.Submit(RunRequest{Dataset: "fmnist", Seed: 7, Rounds: 5000, ClientsPerRound: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, canceled, func(st RunStatus) bool { return st.Steps >= 1 })
	if err := s1.Cancel(context.Background(), canceled); err != nil {
		t.Fatal(err)
	}
	want := map[int]RunStatus{
		done:     waitState(t, s1, done, func(st RunStatus) bool { return st.State == StateDone }),
		canceled: waitState(t, s1, canceled, func(st RunStatus) bool { return st.State == StateCanceled }),
	}
	wantEnd := map[int]wire.End{}
	for id := range want {
		r, err := s1.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		wantEnd[id] = lastEnd(t, r)
	}
	if e := wantEnd[done]; !e.Completed || e.Err != "" || e.Steps != 2 {
		t.Fatalf("completed run ended %+v", e)
	}
	if e := wantEnd[canceled]; e.Completed || e.Err != "canceled" {
		t.Fatalf("canceled run ended %+v", e)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	restore := func(what string, wantEnd map[int]wire.End) {
		t.Helper()
		s := NewServer(Config{Workers: 2, Dir: dir})
		defer s.Shutdown(context.Background())
		if n, err := s.Restore(); err != nil || n != len(wantEnd) {
			t.Fatalf("%s: restored %d runs, %v, want %d", what, n, err, len(wantEnd))
		}
		for id, end := range wantEnd {
			r, err := s.lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			st, before := r.status(), want[id]
			if st.State != before.State || st.Steps != before.Steps || st.Err != end.Err {
				t.Fatalf("%s: run %d restored as %+v, ended as %+v", what, id, st, before)
			}
			if got := lastEnd(t, r); got != end {
				t.Fatalf("%s: run %d restored with End %+v, want %+v", what, id, got, end)
			}
		}
	}
	restore("manifest", wantEnd)

	// The same manifest without the errors, as older daemons wrote it.
	path := dir + "/runs.json"
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	for _, e := range m["runs"].([]any) {
		delete(e.(map[string]any), "err")
	}
	if blob, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := wantEnd[canceled]
	legacy.Err = "terminated before daemon restart"
	restore("manifest without errors", map[int]wire.End{done: wantEnd[done], canceled: legacy})
}

// TestSchedulerMultiplexesRunsByPriority pins the scheduler-backed server:
// concurrent runs with different priorities multiplex onto the shared
// budget a quantum at a time, every run completes, and each run's event
// stream is field-for-field identical to the same engine driven unscheduled
// — priority and interleaving decide only when units execute.
func TestSchedulerMultiplexesRunsByPriority(t *testing.T) {
	s := NewServer(Config{Workers: 2, Quantum: 1})
	reqs := []RunRequest{
		{Dataset: "fmnist", Seed: 81, Rounds: 4, ClientsPerRound: 2, Workers: 2, Priority: 0, Label: "low"},
		{Dataset: "fmnist", Seed: 82, Rounds: 4, ClientsPerRound: 2, Workers: 2, Priority: 5, Label: "high"},
		{Dataset: "fmnist", Seed: 83, Rounds: 4, ClientsPerRound: 2, Workers: 2, Priority: 2, Label: "mid"},
	}
	want := make([]*recorder, len(reqs))
	for i, req := range reqs {
		want[i] = localReference(t, s, req)
	}
	ids := make([]int, len(reqs))
	for i, req := range reqs {
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		st := waitState(t, s, id, func(st RunStatus) bool { return st.State != StateRunning })
		if st.State != StateDone || st.Steps != reqs[i].Rounds {
			t.Fatalf("run %q settled as %+v, want %d done steps", reqs[i].Label, st, reqs[i].Rounds)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i, id := range ids {
		got := &recorder{}
		if _, err := Subscribe(context.Background(), ts.URL, id, SubscribeOptions{Hooks: got.hooks()}); err != nil {
			t.Fatal(err)
		}
		mustEqualEvents(t, got, want[i])
	}
}

// TestSchedulerPauseFreesWorkerForOtherRuns: pausing one hosted run parks
// its job in the scheduler — it stops stepping, while another run submitted
// afterwards runs to completion through the freed capacity; resume then
// carries the parked run to its own natural end.
func TestSchedulerPauseFreesWorkerForOtherRuns(t *testing.T) {
	s := NewServer(Config{Workers: 1, Quantum: 1})
	long := RunRequest{Dataset: "fmnist", Seed: 84, Rounds: 30, ClientsPerRound: 2, Workers: 1, CheckpointEvery: 3, Label: "parked"}
	lid, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, lid, func(st RunStatus) bool { return st.Steps >= 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Pause(ctx, lid); err != nil {
		t.Fatal(err)
	}
	frozen := waitState(t, s, lid, func(st RunStatus) bool { return st.State == StatePaused }).Steps

	quick := RunRequest{Dataset: "fmnist", Seed: 85, Rounds: 3, ClientsPerRound: 2, Workers: 1, Label: "through"}
	qid, err := s.Submit(quick)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, qid, func(st RunStatus) bool { return st.State != StateRunning })
	if st.State != StateDone || st.Steps != quick.Rounds {
		t.Fatalf("run through freed worker settled as %+v", st)
	}
	if got := waitState(t, s, lid, func(RunStatus) bool { return true }); got.State != StatePaused || got.Steps != frozen {
		t.Fatalf("paused run advanced to %+v while parked (was %d steps)", got, frozen)
	}

	if err := s.Resume(lid); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, lid, func(st RunStatus) bool { return st.State != StateRunning })
	if final.State != StateDone || final.Steps != long.Rounds {
		t.Fatalf("resumed run settled as %+v, want %d done steps", final, long.Rounds)
	}
}

// TestSettledRunReleasesEngine: once a run's job settles — one completes, one
// is canceled, one is paused — the server keeps its event log and its last
// checkpoint but no way to its engine, so the federation, the client models
// and the tangle are collected; the status, checkpoint and replay endpoints
// answer as before, the lifecycle calls conflict on the two runs that ended,
// and the paused one resumes from its checkpoint and completes. What a
// settled run keeps costs what it holds: the short run's ring, and the rings
// of the ended runs a restart restores, stay at a few dozen slots however
// large Config.Ring is.
func TestSettledRunReleasesEngine(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Config{Workers: 1, CheckpointEvery: 1, Dir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	// One worker, and the long run outranks the short one: the short run
	// cannot start, let alone settle, before its engine has been tagged. The
	// run to be paused outranks both and is too long to finish first.
	long, err := s.Submit(RunRequest{Dataset: "fmnist", Seed: 4, Rounds: 5000, ClientsPerRound: 2, Priority: 1000})
	if err != nil {
		t.Fatal(err)
	}
	short, err := s.Submit(RunRequest{Dataset: "fmnist", Seed: 3, Rounds: 3, ClientsPerRound: 2})
	if err != nil {
		t.Fatal(err)
	}
	const parkedRounds = 40
	parked, err := s.Submit(RunRequest{Dataset: "fmnist", Seed: 5, Rounds: parkedRounds, ClientsPerRound: 2, Priority: 2000})
	if err != nil {
		t.Fatal(err)
	}
	collected := map[int]chan struct{}{long: make(chan struct{}), short: make(chan struct{}), parked: make(chan struct{})}
	for id, ch := range collected {
		r, err := s.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		r.mu.Lock()
		eng, ok := r.eng.(*core.Simulation)
		r.mu.Unlock()
		if !ok {
			t.Fatalf("run %d has no round engine registered", id)
		}
		runtime.AddCleanup(eng, func(ch chan struct{}) { close(ch) }, ch)
	}

	waitState(t, s, parked, func(st RunStatus) bool { return st.Steps >= 1 })
	if _, err := s.Pause(context.Background(), parked); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, long, func(st RunStatus) bool { return st.HasCheckpoint })
	if err := s.Cancel(context.Background(), long); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, long, func(st RunStatus) bool { return st.State == StateCanceled })
	waitState(t, s, short, func(st RunStatus) bool { return st.State == StateDone })

	deadline := time.After(10 * time.Second)
	for id, ch := range collected {
		for done := false; !done; {
			runtime.GC()
			select {
			case <-ch:
				done = true
			case <-deadline:
				t.Fatalf("the job of run %d settled but its engine is still reachable", id)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	for id, want := range map[int]string{long: StateCanceled, short: StateDone} {
		base := ts.URL + "/runs/" + strconv.Itoa(id)
		resp, err := http.Get(base)
		if err != nil {
			t.Fatal(err)
		}
		var st RunStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || st.State != want || !st.HasCheckpoint {
			t.Fatalf("status of settled run %d: %s %+v %v", id, resp.Status, st, err)
		}
		if info, units := checkpointUnits(t, ts.URL, id); units != st.CheckpointStep {
			t.Fatalf("checkpoint of settled run %d: %+v, want round %d", id, info, st.CheckpointStep)
		}
		frames := 0
		end, err := Subscribe(context.Background(), ts.URL, id, SubscribeOptions{OnFrame: func(wire.Frame) { frames++ }})
		if err != nil || end.Completed != (want == StateDone) || end.Steps != st.Steps || frames < st.Steps {
			t.Fatalf("replay of settled run %d: %d frames, end %+v, %v", id, frames, end, err)
		}
		for _, verb := range []string{"pause", "resume", "cancel"} {
			resp, err := http.Post(base+"/"+verb, "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("%s of settled run %d: %s, want 409", verb, id, resp.Status)
			}
		}
	}

	// The paused run answers from its record too, and that record is all a
	// resume needs.
	st := waitState(t, s, parked, func(RunStatus) bool { return true })
	if st.State != StatePaused || st.Steps >= parkedRounds || st.CheckpointStep != st.Steps {
		t.Fatalf("paused run %+v", st)
	}
	if _, units := checkpointUnits(t, ts.URL, parked); units != st.Steps {
		t.Fatalf("pause checkpoint holds %d units, status %+v", units, st)
	}
	if err := s.Resume(parked); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	end, err := Subscribe(context.Background(), ts.URL, parked, SubscribeOptions{
		Hooks: engine.Hooks{OnRound: func(engine.RoundEvent) { rounds++ }},
	})
	if err != nil || !end.Completed || end.Steps != parkedRounds || rounds != parkedRounds {
		t.Fatalf("resumed run: %d round events, end %+v, %v", rounds, end, err)
	}

	const smallRing = 64
	r, err := s.lookup(short)
	if err != nil {
		t.Fatal(err)
	}
	if n := ringSlots(r.b); n > smallRing {
		t.Fatalf("the settled short run's %d frames sit in a ring of %d slots", r.b.NextIndex(), n)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(Config{Workers: 1, Dir: dir})
	defer s2.Shutdown(context.Background())
	if n, err := s2.Restore(); err != nil || n != 3 {
		t.Fatalf("restored %d runs, %v, want 3", n, err)
	}
	for _, id := range []int{long, short, parked} {
		r, err := s2.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if n := ringSlots(r.b); n > smallRing {
			t.Fatalf("restored run %d (%s) holds a ring of %d slots", id, r.status().State, n)
		}
	}
}

// gatedEngine is a hosted engine whose Step calls wait for the test: each
// announces itself on entered, then proceeds once it receives from gate —
// deaf to ctx meanwhile, as a unit in flight is.
type gatedEngine struct {
	hosted
	entered, gate chan struct{}
}

func (g *gatedEngine) Step(ctx context.Context) (*engine.StepResult, bool, error) {
	g.entered <- struct{}{}
	<-g.gate
	return g.hosted.Step(ctx)
}

// submitGated is Submit with the run's engine behind a gate.
func submitGated(t *testing.T, s *Server, req RunRequest) (*run, *gatedEngine) {
	t.Helper()
	req.normalize()
	eng, err := s.buildEngine(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedEngine{hosted: eng, entered: make(chan struct{}), gate: make(chan struct{})}
	id, err := s.register(req, g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return r, g
}

// TestPauseRaces pins what a pause does when it is not alone: against the
// run's natural end, against a cancel, and after its own caller gave up.
func TestPauseRaces(t *testing.T) {
	req := RunRequest{Dataset: "fmnist", Seed: 41, Rounds: 2, ClientsPerRound: 2}
	pausing := func(r *run) bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.pausing
	}
	// inFlight starts a Pause and returns once it has asked the job to stop.
	inFlight := func(ctx context.Context, s *Server, r *run) chan error {
		errc := make(chan error, 1)
		go func() {
			_, err := s.Pause(ctx, r.id)
			errc <- err
		}()
		for !pausing(r) {
			time.Sleep(time.Millisecond)
		}
		return errc
	}

	t.Run("natural end", func(t *testing.T) {
		s := NewServer(Config{Workers: 1})
		defer s.Shutdown(context.Background())
		r, g := submitGated(t, s, req)
		for range req.Rounds {
			<-g.entered
			g.gate <- struct{}{}
		}
		<-g.entered // the Step that will find the run complete
		errc := inFlight(context.Background(), s, r)
		g.gate <- struct{}{}
		if err := <-errc; err == nil || !strings.Contains(err.Error(), "settled as done instead of pausing") {
			t.Fatalf("pause of a run that completed under it: %v", err)
		}
		if st := r.status(); st.State != StateDone || st.Steps != req.Rounds || !r.b.Closed() {
			t.Fatalf("run %+v, log closed %v", st, r.b.Closed())
		}
	})

	t.Run("cancel", func(t *testing.T) {
		s := NewServer(Config{Workers: 1})
		defer s.Shutdown(context.Background())
		r, g := submitGated(t, s, req)
		<-g.entered
		paused := inFlight(context.Background(), s, r)
		canceled := make(chan error, 1)
		go func() { canceled <- s.Cancel(context.Background(), r.id) }()
		g.gate <- struct{}{}
		if err := <-canceled; err != nil {
			t.Fatal(err)
		}
		// The pause may have seen its checkpoint taken or the cancel's outcome;
		// the run never stays paused.
		if err := <-paused; err != nil && !strings.Contains(err.Error(), "settled as canceled instead of pausing") {
			t.Fatal(err)
		}
		if st := r.status(); st.State != StateCanceled || st.Err != "canceled" || !r.b.Closed() {
			t.Fatalf("run %+v, log closed %v", st, r.b.Closed())
		}
		if err := s.Resume(r.id); err == nil {
			t.Fatal("resumed a canceled run")
		}
	})

	t.Run("caller gone", func(t *testing.T) {
		s := NewServer(Config{Workers: 1})
		defer s.Shutdown(context.Background())
		r, g := submitGated(t, s, req)
		<-g.entered
		ctx, cancel := context.WithCancel(context.Background())
		errc := inFlight(ctx, s, r)
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("pause whose context ended: %v", err)
		}
		if st := r.status(); st.State != StateRunning {
			t.Fatalf("run %+v before its unit boundary", st)
		}
		// The request stands: the job is stopping, and the run pauses at its
		// boundary — here before the unit in flight even started.
		g.gate <- struct{}{}
		st := waitState(t, s, r.id, func(st RunStatus) bool { return st.State != StateRunning })
		if st.State != StatePaused || !st.HasCheckpoint || st.CheckpointStep != st.Steps {
			t.Fatalf("run %+v, want paused at its checkpoint", st)
		}
		if err := s.Resume(r.id); err != nil {
			t.Fatal(err)
		}
		if st := waitState(t, s, r.id, func(st RunStatus) bool { return st.State != StateRunning }); st.State != StateDone || st.Steps != req.Rounds {
			t.Fatalf("resumed run %+v", st)
		}
	})
}

// cadenceRequests are the two shapes of hosted run the checkpoint tests
// drive: a round engine, and an event engine over a compacting tangle, whose
// epochs freeze — and release their parameter vectors — between checkpoints.
var cadenceRequests = map[string]RunRequest{
	"rounds": {Dataset: "fmnist", Seed: 23, Rounds: 10, ClientsPerRound: 2, Workers: 2},
	"async compacting": {Dataset: "fmnist", Seed: 29, Async: true, Duration: 12, MinCycle: 0.5, MaxCycle: 2, NetDelay: 0.1,
		DepthMin: 3, DepthMax: 6, CompactWidth: 2, CompactLive: 2, Workers: 2},
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestCadenceCaptureEncodesLater: a cadence checkpoint handed over as a value
// costs the run its state section, not its tangle, and stays the checkpoint
// of its own unit boundary however the run goes on. Every capture of a run is
// encoded after the run has ended — for the compacting one, after epochs that
// were live in it froze and released their vectors — and is byte for byte
// what a same-seed run wrote on the spot at that step.
func TestCadenceCaptureEncodesLater(t *testing.T) {
	for name, req := range cadenceRequests {
		t.Run(name, func(t *testing.T) {
			req.normalize()
			s := NewServer(Config{Workers: 2})
			defer s.Shutdown(context.Background())
			run := func(opts ...engine.Option) {
				t.Helper()
				eng, err := s.buildEngine(&req, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := engine.Run(context.Background(), eng, opts...); err != nil {
					t.Fatal(err)
				}
			}
			// Kept as the daemon keeps them, with what the process allocated
			// between the unit's last hook and the save — taking one cadence
			// checkpoint and nothing else.
			var kept []engine.Checkpoint
			var allocs []uint64
			var before uint64
			run(engine.WithHooks(engine.Hooks{OnRound: func(engine.RoundEvent) { before = totalAlloc() }}),
				engine.WithCheckpoints(4, func(c engine.Checkpoint) error {
					allocs = append(allocs, totalAlloc()-before)
					kept = append(kept, c)
					return nil
				}))
			var eager [][]byte
			run(engine.WithCheckpoints(4, func(c engine.Checkpoint) error {
				var b bytes.Buffer
				_, err := c.WriteTo(&b)
				eager = append(eager, b.Bytes())
				return err
			}))
			if len(kept) < 2 || len(kept) != len(eager) {
				t.Fatalf("%d captures, %d eager checkpoints", len(kept), len(eager))
			}
			floors := make([]dag.ID, len(kept))
			for i, c := range kept {
				var got bytes.Buffer
				n, err := c.WriteTo(&got)
				if err != nil || n != c.Size() || int64(got.Len()) != c.Size() {
					t.Fatalf("capture %d: WriteTo = %d, %v into %d bytes, Size is %d", i, n, err, got.Len(), c.Size())
				}
				if !bytes.Equal(got.Bytes(), eager[i]) {
					t.Fatalf("capture %d, encoded after the run, differs from the %d bytes written at its step", i, len(eager[i]))
				}
				_, d, err := core.InspectCheckpoint(&got)
				if err != nil {
					t.Fatal(err)
				}
				floors[i] = d.LiveFloor()
			}
			last := len(floors) - 1
			// Taking a checkpoint encodes nothing: what it allocates is the
			// state struct's own lists (queue, clients, slice headers of pinned
			// history rows and in-flight parameter vectors), a sliver of the
			// bytes they stand for.
			if req.Async && floors[last] <= floors[0] {
				t.Errorf("live floors %v: nothing captured live froze before it was encoded", floors)
			}
			if size := kept[last].Size(); allocs[last] >= uint64(size)/16 {
				t.Errorf("taking the last, %d-byte checkpoint allocated %d bytes, want < 1/16", size, allocs[last])
			}
			t.Logf("%d captures of %d…%d bytes, live floor %d…%d; taking the last allocated %d bytes",
				len(kept), kept[0].Size(), kept[last].Size(), floors[0], floors[last], allocs[last])
		})
	}
}

// TestCheckpointDownloadsWhileEpochsFreeze: a download encodes the run's
// latest capture on the handler's goroutine while the engine goes on
// publishing, freezing epochs and replacing that capture — under the race
// detector this is the claim that an encoder reads nothing the run still
// writes. Every download states its length, arrives whole and resumes.
func TestCheckpointDownloadsWhileEpochsFreeze(t *testing.T) {
	req := cadenceRequests["async compacting"]
	req.CheckpointEvery = 4
	s := NewServer(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	req.normalize()
	spec, _, acfg, err := req.Configs(s.Pool())
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for running := true; running; {
		running = waitState(t, s, id, func(RunStatus) bool { return true }).State == StateRunning
		resp, err := http.Get(ts.URL + "/runs/" + strconv.Itoa(id) + "/checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			continue // before the first cadence
		}
		if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(blob)) {
			t.Fatalf("download: %s, Content-Length %d, %d bytes, %v", resp.Status, resp.ContentLength, len(blob), err)
		}
		resumed, err := core.ResumeAsyncSimulation(spec.Fed, *acfg, bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("resuming a download: %v", err)
		}
		if resumed.Events()%req.CheckpointEvery != 0 {
			t.Fatalf("a download resumes at event %d, off the cadence of %d", resumed.Events(), req.CheckpointEvery)
		}
		sizes[len(blob)] = true
	}
	if st := waitState(t, s, id, func(st RunStatus) bool { return st.State != StateRunning }); st.State != StateDone {
		t.Fatalf("run %+v", st)
	}
	if len(sizes) < 2 {
		t.Fatalf("downloads of sizes %v: the loop never saw the run move", sizes)
	}
}
