package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// allocated returns the bytes fn allocates (nothing else runs meanwhile:
// the tests of this package are sequential).
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// keptCheckpoint is a sink that asks for the checkpoint as a value, as the
// daemon's does.
type keptCheckpoint struct{ c *Checkpoint }

func (k *keptCheckpoint) KeepCheckpoint(c *Checkpoint) { k.c = c }

func (k *keptCheckpoint) Write([]byte) (int, error) {
	panic("bytes written into a sink that keeps the value")
}

// TestCheckpointStreams pins what the envelope's shape buys: the tangle —
// here 5 MB of a checkpoint whose state section is under 100 KB — passes through
// a checkpoint write in chunks and through a resume record by record, no
// buffer of its size exists on either side, and a sink that keeps the
// checkpoint as a value is not charged for the tangle at all.
func TestCheckpointStreams(t *testing.T) {
	sim, async := benchEngines(t, 260)
	fed := smallFed(30)
	for _, eng := range []struct {
		name   string
		write  func(io.Writer) (int64, error)
		resume func(io.Reader) error
	}{
		{"sync", sim.WriteCheckpoint, func(r io.Reader) error { _, err := ResumeSimulation(fed, sim.cfg, r); return err }},
		{"async", async.WriteCheckpoint, func(r io.Reader) error { _, err := ResumeAsyncSimulation(fed, async.cfg, r); return err }},
	} {
		t.Run(eng.name, func(t *testing.T) {
			var blob bytes.Buffer
			if _, err := eng.write(&blob); err != nil {
				t.Fatal(err)
			}
			_, d, err := InspectCheckpoint(bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var tangle bytes.Buffer
			if _, err := d.WriteTo(&tangle); err != nil {
				t.Fatal(err)
			}
			paramBytes := 8 * d.Size() * len(d.Genesis().Params)
			if state := blob.Len() - tangle.Len(); tangle.Len() < 4<<20 || state > 128<<10 {
				t.Fatalf("the case is a %d-byte tangle under %d bytes of state, want ≥ 4 MiB under ≤ 128 KiB", tangle.Len(), state)
			}
			if blob.Cap() > blob.Len()+8<<10 { // the allocator rounds a large object up to whole 8 KiB pages
				t.Errorf("the size announced to the sink left it with capacity %d for %d bytes", blob.Cap(), blob.Len())
			}
			// The announcement is exact: a sink that already has the room —
			// sized from the last checkpoint's length — is not regrown.
			var sized bytes.Buffer
			sized.Grow(blob.Len())
			had := sized.Cap()
			if _, err := eng.write(&sized); err != nil || sized.Cap() != had {
				t.Errorf("a sink of capacity %d took the %d-byte checkpoint with %v and capacity %d", had, blob.Len(), err, sized.Cap())
			}

			wrote := allocated(func() {
				if _, err := eng.write(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
			if wrote >= 1<<20 {
				t.Errorf("writing a %d-byte checkpoint allocates %d bytes, want < 1 MiB", blob.Len(), wrote)
			}
			var kept keptCheckpoint
			took := allocated(func() {
				if n, err := eng.write(&kept); err != nil || n != 0 {
					t.Fatalf("handing the checkpoint over wrote %d bytes, %v", n, err)
				}
			})
			if took >= 1<<20 {
				t.Errorf("taking a %d-byte checkpoint as a value allocates %d bytes, want < 1 MiB", blob.Len(), took)
			}
			var later bytes.Buffer
			if n, err := kept.c.WriteTo(&later); err != nil || n != kept.c.Size() || !bytes.Equal(later.Bytes(), blob.Bytes()) {
				t.Errorf("the kept checkpoint, Size %d, encodes to %d bytes (%d, %v), not the %d written on the spot",
					kept.c.Size(), later.Len(), n, err, blob.Len())
			}
			read := allocated(func() {
				if err := eng.resume(bytes.NewReader(blob.Bytes())); err != nil {
					t.Fatal(err)
				}
			})
			if read >= 2*uint64(paramBytes) {
				t.Errorf("resuming allocates %d bytes for %d bytes of decoded parameters, want < 2×", read, paramBytes)
			}
			t.Logf("%d-byte checkpoint: write allocates %d bytes, taking it as a value %d, resume %d", blob.Len(), wrote, took, read)
		})
	}
}

// TestCheckpointSectionBoundary: the state section starts at the byte the
// record stream ended on, whatever the reader hands over per Read — one
// byte, half of what was asked, a file's pages — and whether or not it is
// already buffered. Checkpoint bytes are a function of the state, so the
// resumed engines are compared by checkpointing them again.
func TestCheckpointSectionBoundary(t *testing.T) {
	syncBlob, asyncBlob := goldenSyncCheckpoint(t), goldenAsyncCheckpoint(t)
	file := func(blob []byte) io.Reader {
		path := filepath.Join(t.TempDir(), "run.sdc")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	readers := map[string]func([]byte) io.Reader{
		"bytes.Reader":  func(b []byte) io.Reader { return bytes.NewReader(b) },
		"OneByteReader": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"HalfReader":    func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"os.File":       file,
		"trailing data": func(b []byte) io.Reader { return bytes.NewReader(append(b[:len(b):len(b)], "SDC2 and more"...)) },
	}
	again := func(w interface {
		WriteCheckpoint(io.Writer) (int64, error)
	}, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := w.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fed := goldenFed()
	for name, open := range readers {
		t.Run(name, func(t *testing.T) {
			if got := again(ResumeSimulation(fed, goldenSyncConfig(), open(syncBlob))); !bytes.Equal(got, syncBlob) {
				t.Errorf("sync: the resumed engine checkpoints to %d other bytes", len(got))
			}
			if got := again(ResumeAsyncSimulation(fed, goldenAsyncConfig(), open(asyncBlob))); !bytes.Equal(got, asyncBlob) {
				t.Errorf("async: the resumed engine checkpoints to %d other bytes", len(got))
			}
			if _, _, err := InspectCheckpoint(open(syncBlob)); err != nil {
				t.Errorf("InspectCheckpoint: %v", err)
			}
		})
	}
}

// TestCheckpointCutAtSections: a checkpoint cut in either section, or
// exactly between them, or dressed in the previous generation's magic, is an
// error that names the section it failed in — for every reader.
func TestCheckpointCutAtSections(t *testing.T) {
	good := goldenSyncCheckpoint(t)
	_, d, err := InspectCheckpoint(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var tangle bytes.Buffer
	if _, err := d.WriteTo(&tangle); err != nil {
		t.Fatal(err)
	}
	boundary := 4 + tangle.Len()
	if !bytes.Equal(good[4:boundary], tangle.Bytes()) {
		t.Fatal("the tangle section is not the SDG1 stream of the decoded tangle")
	}
	v2 := func(body []byte) []byte { return append([]byte("SDC2"), body...) }
	for _, tc := range []struct {
		name, want string
		blob       []byte
	}{
		{"inside a record", "core: checkpoint DAG: dag: tx ", good[:boundary/2]},
		{"inside the record header", "core: checkpoint DAG: dag: reading count", good[:10]},
		{"at the section boundary", "core: decoding checkpoint: EOF", good[:boundary]},
		{"inside the state section", "core: decoding checkpoint: ", good[:(boundary+len(good))/2]},
		{"v3 body behind the v2 magic", "core: decoding checkpoint: ", v2(good[4:])},
		{"v2 file without its tangle", "core: checkpoint DAG: dag: bad magic", v2(good[boundary:])},
	} {
		for name, read := range map[string]func(io.Reader) error{
			"ResumeSimulation": func(r io.Reader) error {
				_, err := ResumeSimulation(goldenFed(), goldenSyncConfig(), r)
				return err
			},
			"InspectCheckpoint": func(r io.Reader) error { _, _, err := InspectCheckpoint(r); return err },
		} {
			if err := read(bytes.NewReader(tc.blob)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: %v, want an error containing %q", name, tc.name, err, tc.want)
			}
		}
	}
}

// TestCaptureEncodesWhileTheRunGoesOn: a checkpoint kept as a value pins the
// engine state instead of copying it — the history, the clients' last models
// under partial sharing, the in-flight publications — so the run must never
// write into what a capture holds. Two goroutines encode one capture while
// the engine runs on; under the race detector this is the claim, and every
// encoding must be the bytes written at the capture's boundary.
func TestCaptureEncodesWhileTheRunGoesOn(t *testing.T) {
	shared := smallConfig()
	shared.SharedLayers = 1
	sim, err := NewSimulation(smallFed(40), shared)
	if err != nil {
		t.Fatal(err)
	}
	acfg := asyncConfig()
	acfg.NetworkDelay = 6 // publications stay in flight across many events
	async, err := NewAsyncSimulation(smallFed(40), acfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name  string
		write func(io.Writer) (int64, error)
		step  func()
	}{
		{"sync", sim.WriteCheckpoint, func() { sim.RunRound() }},
		{"async", async.WriteCheckpoint, func() {
			if _, err := async.step(); err != nil {
				t.Error(err)
			}
		}},
	} {
		t.Run(eng.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				eng.step()
			}
			var eager bytes.Buffer
			var kept keptCheckpoint
			if _, err := eng.write(&eager); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.write(&kept); err != nil {
				t.Fatal(err)
			}
			encoded := make(chan []byte, 2)
			for g := 0; g < cap(encoded); g++ {
				go func() {
					var buf bytes.Buffer
					for i := 0; i < 3; i++ {
						buf.Reset()
						if _, err := kept.c.WriteTo(&buf); err != nil {
							t.Error(err)
						}
					}
					encoded <- buf.Bytes()
				}()
			}
			for i := 0; i < 4; i++ {
				eng.step()
			}
			for g := 0; g < cap(encoded); g++ {
				if got := <-encoded; !bytes.Equal(got, eager.Bytes()) {
					t.Errorf("a capture encoded while the run went on gives %d bytes, not the %d written at its boundary", len(got), eager.Len())
				}
			}
		})
	}
}
