package serve

import (
	"bytes"
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/specdag/specdag/internal/wire"
)

// crash abandons s as a killed daemon leaves its state directory: the
// scheduler's serve loop stops after the units in flight, and nothing else
// runs — no pause, no Shutdown, no manifest rewrite.
func crash(s *Server) {
	s.stopSched()
	s.wg.Wait()
}

// killRequests are the runs TestKillAnywhere hosts: two on the round engine
// and two on the event engine, one of them over a compacting tangle.
var killRequests = []RunRequest{
	{Dataset: "fmnist", Seed: 61, Rounds: 120, ClientsPerRound: 2, Workers: 1, CheckpointEvery: 2, Label: "rounds-a"},
	{Dataset: "fmnist", Seed: 62, Rounds: 100, ClientsPerRound: 3, Workers: 1, CheckpointEvery: 3, Label: "rounds-b"},
	{Dataset: "fmnist", Seed: 63, Async: true, Duration: 10, MinCycle: 0.5, MaxCycle: 2, NetDelay: 0.1,
		Workers: 1, CheckpointEvery: 2, Label: "async"},
	{Dataset: "fmnist", Seed: 64, Async: true, Duration: 12, MinCycle: 0.5, MaxCycle: 2, NetDelay: 0.1,
		DepthMin: 3, DepthMax: 6, CompactWidth: 2, CompactLive: 2, Workers: 1, CheckpointEvery: 3, Label: "async-compacting"},
}

// waitFor polls cond until it holds, failing the test at the deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within 30 s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// progress is the number of units the server's running runs have completed,
// and whether any run is still running.
func progress(s *Server) (units int, running bool) {
	for _, r := range s.sorted() {
		st := r.status()
		if st.State == StateRunning {
			units += st.Steps
			running = true
		}
	}
	return units, running
}

// logFrames reads a run's whole retained event log.
func logFrames(t *testing.T, b *Broadcaster) []wire.Frame {
	t.Helper()
	var frames []wire.Frame
	for sub := b.Subscribe(b.Earliest()); sub.Cursor() < b.NextIndex(); {
		f, err := sub.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	return frames
}

// encoded is a checkpoint's bytes.
func encoded(t *testing.T, r *run) []byte {
	t.Helper()
	r.mu.Lock()
	c := r.ckpt
	r.mu.Unlock()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKillAnywhere is the daemon's crash-anywhere contract: a server with a
// state directory is abandoned without Shutdown at seeded points, restarted
// on the same directory with NewServer and Restore, and killed again, until
// every run has finished. Each run's event log, assembled across the
// processes, is frame for frame the log of an uninterrupted daemon — the End
// frame, every round and publish event once and in order, every checkpoint
// frame — and every frame a restarted process logs past its restore's
// checkpoint index is the one the killed process logged there. Each run's
// final checkpoint bytes are the uninterrupted run's.
func TestKillAnywhere(t *testing.T) {
	cfg := Config{Workers: 1, Ring: 1 << 14, Quantum: 2}
	ref := NewServer(cfg)
	defer ref.Shutdown(context.Background())
	var ids []int
	for _, req := range killRequests {
		id, err := ref.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	want, wantCkpt := map[int][]wire.Frame{}, map[int][]byte{}
	for _, id := range ids {
		st := waitState(t, ref, id, func(st RunStatus) bool { return st.State != StateRunning })
		if st.State != StateDone {
			t.Fatalf("uninterrupted run %d: %+v", id, st)
		}
		r, _ := ref.lookup(id)
		want[id], wantCkpt[id] = logFrames(t, r.b), encoded(t, r)
	}

	cfg.Dir = t.TempDir()
	s := NewServer(cfg)
	for _, req := range killRequests {
		if _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	got, gotCkpt := map[int][]wire.Frame{}, map[int][]byte{}
	rng := rand.New(rand.NewPCG(44, 16))
	kills := 0
	for {
		start, _ := progress(s)
		target := start + 1 + rng.IntN(10)
		waitFor(t, "progress", func() bool {
			units, running := progress(s)
			return units >= target || !running
		})
		crash(s)
		for _, id := range ids {
			if gotCkpt[id] != nil {
				continue // ended in an earlier process
			}
			r, _ := s.lookup(id)
			from, log := r.b.Earliest(), got[id]
			for k, f := range logFrames(t, r.b) {
				i := from + uint64(k)
				switch {
				case i == uint64(len(log)):
					log = append(log, f)
				case i == from && f.Kind == wire.KindStart && log[i].Kind == wire.KindCheckpoint:
					// The restored log's Start frame stands where the
					// checkpoint it resumed from was announced.
				case i > uint64(len(log)):
					t.Fatalf("run %d restored at index %d past the %d frames logged", id, from, len(log))
				case !reflect.DeepEqual(f, log[i]):
					t.Fatalf("run %d frame %d after a restore at %d:\n got %+v\nkilled process logged %+v", id, i, from, f, log[i])
				}
			}
			got[id] = log
			if log[len(log)-1].Kind == wire.KindEnd {
				gotCkpt[id] = encoded(t, r)
			}
		}
		if len(gotCkpt) == len(ids) {
			break
		}
		kills++
		s = NewServer(cfg)
		if n, err := s.Restore(); err != nil || n != len(ids) {
			t.Fatalf("restore after kill %d: %d runs, %v", kills, n, err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d kills", kills)
	if kills < 20 {
		t.Fatalf("every run finished after %d kills, want at least 20", kills)
	}
	// Every checkpoint file was removed once a newer one, or its run's end,
	// was in the manifest: nothing is left but the manifest.
	if entries, err := os.ReadDir(cfg.Dir); err != nil || len(entries) != 1 || entries[0].Name() != "runs.json" {
		t.Fatalf("state directory after every run ended: %v, %v", entries, err)
	}
	for _, id := range ids {
		if !reflect.DeepEqual(got[id], want[id]) {
			for i := range min(len(got[id]), len(want[id])) {
				if !reflect.DeepEqual(got[id][i], want[id][i]) {
					t.Fatalf("run %d frame %d:\n got %+v\nwant %+v", id, i, got[id][i], want[id][i])
				}
			}
			t.Fatalf("run %d logged %d frames across %d kills, want %d", id, len(got[id]), kills, len(want[id]))
		}
		if !bytes.Equal(gotCkpt[id], wantCkpt[id]) {
			t.Fatalf("run %d final checkpoint: %d bytes differing from the uninterrupted run's %d", id, len(gotCkpt[id]), len(wantCkpt[id]))
		}
	}
}

// TestLostStateDirFailsRun: a run whose checkpoint cannot be written fails,
// with the write error in its status and its End frame, instead of running on
// without the durability the state directory promises.
func TestLostStateDirFailsRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	s := NewServer(Config{Workers: 2, Dir: dir})
	defer s.Shutdown(context.Background())
	id, err := s.Submit(RunRequest{Dataset: "fmnist", Seed: 7, Rounds: 5000, ClientsPerRound: 2, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, func(st RunStatus) bool { return st.HasCheckpoint })
	// A checkpoint may land between the removal's reads; remove until gone.
	waitFor(t, "removal of the state directory", func() bool { return os.RemoveAll(dir) == nil })
	st := waitState(t, s, id, func(st RunStatus) bool { return st.State != StateRunning })
	// The checkpoint's own write or the manifest naming it, whichever the
	// removal reached first.
	if st.State != StateFailed || !strings.Contains(st.Err, "engine: checkpoint at step") || !strings.Contains(st.Err, "no such file or directory") {
		t.Fatalf("run after its state directory was removed: %+v", st)
	}
	r, _ := s.lookup(id)
	if end := lastEnd(t, r); end.Completed || end.Err != st.Err {
		t.Fatalf("End frame %+v, want the status error %q", end, st.Err)
	}
}

// TestRestoreRetiresManifestIDs: the manifest's next_id holds even when it
// lists no run, so a restarted daemon never hands out an ID (and truncates
// that ID's spill file) twice.
func TestRestoreRetiresManifestIDs(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "runs.json"), []byte(`{"next_id": 5, "runs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Workers: 1, Dir: dir})
	defer s.Shutdown(context.Background())
	if n, err := s.Restore(); err != nil || n != 0 {
		t.Fatalf("restored %d runs, %v", n, err)
	}
	id, err := s.Submit(RunRequest{Dataset: "fmnist", Seed: 1, Rounds: 1, ClientsPerRound: 2})
	if err != nil || id != 5 {
		t.Fatalf("first submit after the restore: id %d, %v, want 5", id, err)
	}
}
