package core

// Layer numbers of the checkpoint and resume paths at round-walk's shape.
// The file uses nothing newer than PR 18's API, so copied into an older
// checkout it times the envelope there:
//
//	go test -run '^$' -bench 'WriteCheckpoint|Resume' -benchmem ./internal/core
//
// (BenchmarkCaptureCheckpoint is PR 24's and goes when the file is copied.)

import (
	"bytes"
	"io"
	"testing"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/xrand"
)

// fatten publishes transactions straight into d until it holds n: random
// models of the genesis' size on the two newest transactions. What a
// checkpoint costs is a function of the tangle's size, not of how it grew.
func fatten(tb testing.TB, d *dag.DAG, n int) {
	tb.Helper()
	rng := xrand.New(11)
	dim := len(d.Genesis().Params)
	for id := d.Size(); id < n; id++ {
		parents := []dag.ID{dag.ID(id - 1)}
		if id > 1 {
			parents = append(parents, dag.ID(id-2))
		}
		if _, err := d.Add(id%12, id/12, parents, rng.NormalVec(dim, 0, 1), dag.Meta{TestAcc: rng.Float64()}); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchTxs × 2 410 parameters is the tangle round-walk ends with (23 MB).
const benchTxs = 1200

// benchEngines returns a round engine and an event engine, each one unit in
// and fattened to n transactions.
func benchEngines(tb testing.TB, n int) (*Simulation, *AsyncSimulation) {
	tb.Helper()
	sim, err := NewSimulation(smallFed(30), smallConfig())
	if err != nil {
		tb.Fatal(err)
	}
	sim.RunRound()
	fatten(tb, sim.tangle, n)
	cfg := asyncConfig()
	cfg.Duration = 1e6
	async, err := NewAsyncSimulation(smallFed(30), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := async.step(); err != nil {
		tb.Fatal(err)
	}
	fatten(tb, async.tangle, n)
	return sim, async
}

// BenchmarkWriteCheckpoint is one checkpoint of each engine into a sink that
// drops the bytes and into one that keeps them, as the daemon's does.
func BenchmarkWriteCheckpoint(b *testing.B) {
	sim, async := benchEngines(b, benchTxs)
	for _, eng := range []struct {
		name  string
		write func(io.Writer) (int64, error)
	}{{"sync", sim.WriteCheckpoint}, {"async", async.WriteCheckpoint}} {
		for _, sink := range []struct {
			name string
			open func() io.Writer
		}{{"discard", func() io.Writer { return io.Discard }}, {"buffer", func() io.Writer { return new(bytes.Buffer) }}} {
			b.Run(eng.name+"/"+sink.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n, err := eng.write(sink.open())
					if err != nil {
						b.Fatal(err)
					}
					b.SetBytes(n)
				}
			})
		}
	}
}

// BenchmarkCaptureCheckpoint is one checkpoint of each engine taken as a
// value: what a cadence checkpoint costs a hosted run, beside what encoding
// it costs whoever reads it (BenchmarkWriteCheckpoint).
func BenchmarkCaptureCheckpoint(b *testing.B) {
	sim, async := benchEngines(b, benchTxs)
	for _, eng := range []struct {
		name string
		take func() engine.Checkpoint
	}{{"sync", sim.Checkpoint}, {"async", async.Checkpoint}} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.take()
			}
		})
	}
}

// BenchmarkResume rebuilds each engine from its checkpoint bytes, constructor
// included.
func BenchmarkResume(b *testing.B) {
	sim, async := benchEngines(b, benchTxs)
	var syncBlob, asyncBlob bytes.Buffer
	if _, err := sim.WriteCheckpoint(&syncBlob); err != nil {
		b.Fatal(err)
	}
	if _, err := async.WriteCheckpoint(&asyncBlob); err != nil {
		b.Fatal(err)
	}
	fed := smallFed(30)
	for _, eng := range []struct {
		name   string
		blob   []byte
		resume func(io.Reader) error
	}{
		{"sync", syncBlob.Bytes(), func(r io.Reader) error { _, err := ResumeSimulation(fed, sim.cfg, r); return err }},
		{"async", asyncBlob.Bytes(), func(r io.Reader) error { _, err := ResumeAsyncSimulation(fed, async.cfg, r); return err }},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.SetBytes(int64(len(eng.blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.resume(bytes.NewReader(eng.blob)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
