package core

// The snapshot envelope shared by both checkpoint kinds. SDC2 (round engine,
// checkpoint.go) and SDA2 (event engine, checkpoint_async.go) are sibling
// formats: four magic bytes, the tangle as an SDG1 record stream
// (internal/dag), then one gob value. The tangle is nearly all of a
// checkpoint, so it is never held as a blob: taking a checkpoint captures it
// (dag.Capture: the append-only transaction list pinned where it stands, no
// byte encoded), Checkpoint.WriteTo streams the capture into whoever reads,
// dag.ReadDAG parses it off the reader — and it goes first: the record count
// sits at a fixed offset, the engine's state is a tail, encoded when the
// checkpoint is taken. What is left of the cost of a checkpoint nobody reads
// is that tail, and most of it is the parameter vectors of the async engine's
// in-flight pending publications, which gob encodes float by float. The gob
// structs differ — each engine saves exactly what its own schedule and
// delivery state cannot reconstruct — but both carry the same sections (seed,
// versioned fault schedule, versioned epoch compaction), and everything that
// touches only those lives here once: the magic diagnosis, the write path,
// the section validation with DAG decode and epoch restore, and the resume
// tail. The gob structs stay flat and field-for-field stable (embedding a
// shared struct would change the encoding), so the envelope reaches their
// common fields through the pointers sections() hands out.
//
// SDC1/SDA1, the previous generation, nested the SDG1 stream in the gob
// value's DAG field. Nothing writes them any more; readSnapshot reads them
// (serve.Restore re-hosts what an older daemon persisted) through the same
// gob structs and one branch on the magic.

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/faults"
)

var (
	// checkpointMagic identifies round-simulation checkpoints and fixes the
	// version; asyncCheckpointMagic is the event-driven sibling.
	checkpointMagic      = [4]byte{'S', 'D', 'C', '2'}
	asyncCheckpointMagic = [4]byte{'S', 'D', 'A', '2'}
	// The DAG codec's (internal/dag) and event-stream codec's (internal/wire)
	// magics are mirrored so a user who points a resume at a bare tangle
	// snapshot or a saved event log is told what the file actually is.
	codecMagicSDG1       = [4]byte{'S', 'D', 'G', '1'}
	eventStreamMagicSDE1 = [4]byte{'S', 'D', 'E', '1'}
)

// v1Magic is the magic the previous generation of m's kind was written under.
func v1Magic(m [4]byte) [4]byte {
	m[3] = '1'
	return m
}

// gob hands out type ids process-wide in order of first use and writes them
// into every stream. Encoding both roots here — core is the module's first
// package to initialise that uses gob — assigns the ids of every type a
// checkpoint names: its bytes are a function of the state, not of what else
// met gob earlier in the process.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, root := range []snapshotState{&checkpointState{}, &asyncCheckpointState{}} {
		if err := enc.Encode(root); err != nil {
			panic(err)
		}
	}
}

// wrongMagic explains a magic other than the wanted one: what the sibling
// format is, and what to do with one instead.
func wrongMagic(got, want [4]byte) error {
	var what string
	switch got {
	case checkpointMagic, v1Magic(checkpointMagic):
		what = "a synchronous round-simulation checkpoint (resume it with ResumeSimulation)"
	case asyncCheckpointMagic, v1Magic(asyncCheckpointMagic):
		what = "an asynchronous event-simulation checkpoint (resume it with ResumeAsyncSimulation)"
	case codecMagicSDG1:
		what = "a bare DAG snapshot, not a simulation checkpoint (inspect it with dagstat or dag.ReadDAG)"
	case eventStreamMagicSDE1:
		what = "an event-stream log, not a simulation checkpoint (inspect it with dagstat or wire.ReadAll)"
	default:
		return fmt.Errorf("core: bad magic %q (not a %q checkpoint)", got, want)
	}
	return fmt.Errorf("core: bad magic %q, want %q — this is %s", got, want, what)
}

// sections points at the fields every checkpoint kind carries, wherever its
// gob struct declares them (checkpointState documents what each section
// holds and how its version field evolves).
type sections struct {
	seed              *int64
	dag               *[]byte // v1 files only: the tangle, nested in the gob value
	faultsVersion     *int
	faults            *faults.Config
	compactionVersion *int
	compaction        *dag.Compaction
	epochs            *[]dag.EpochSummary
}

// snapshotState is a checkpoint kind's gob struct.
type snapshotState interface {
	sections() sections
	info() *CheckpointInfo // the kind's own summary fields (InspectCheckpoint)
	// validate checks the kind's own fields against the decoded tangle, so a
	// corrupted or adversarial snapshot fails with an actionable error —
	// never a panic and never a silently wrong run.
	validate(d *dag.DAG) error
}

// A Checkpoint is a checkpoint as a value: the magic, a capture of the tangle
// and the encoded state, taken at a unit boundary. Its bytes are produced when
// someone asks — WriteTo is the one encoder of the envelope, for a checkpoint
// written on the spot and for one kept and read later (or never): the capture
// holds no lock and does not follow the run, so any goroutine may encode it at
// any time, any number of times, and gets the bytes of the boundary.
type Checkpoint struct {
	magic  [4]byte
	tangle *dag.Capture
	state  []byte
}

// Size is the number of bytes WriteTo writes.
func (c *Checkpoint) Size() int64 { return int64(len(c.magic) + c.tangle.Size() + len(c.state)) }

// WriteTo writes the envelope — magic, the tangle, then the state — and
// returns the bytes written. A sink that collects the checkpoint in memory
// (one with a Grow method) is told its size first and never regrows.
func (c *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(int(c.Size()))
	}
	n, err := w.Write(c.magic[:])
	if err != nil {
		return int64(n), err
	}
	tn, err := c.tangle.WriteTo(w)
	if err != nil {
		return int64(n) + tn, fmt.Errorf("core: checkpointing DAG: %w", err)
	}
	sn, err := w.Write(c.state)
	return int64(n) + tn + int64(sn), err
}

// writeSnapshot fills st's shared sections from the body and takes the
// checkpoint: the state is encoded here (the capture cannot pin it, and Size
// needs its length), the tangle is captured. A sink that keeps checkpoints
// rather than bytes says so with a KeepCheckpoint method and is handed the
// value, nothing written; any other gets the bytes, and their count back.
func (b *body) writeSnapshot(w io.Writer, magic [4]byte, st snapshotState) (int64, error) {
	sec := st.sections()
	*sec.seed = b.seed
	if b.faults.Enabled() {
		*sec.faultsVersion = 1
		*sec.faults = b.faults
	}
	if b.compaction.Enabled() {
		*sec.compactionVersion = 1
		*sec.compaction = b.tangle.CompactionConfig()
		*sec.epochs = b.tangle.FrozenEpochs()
	}
	var state bytes.Buffer
	if err := gob.NewEncoder(&state).Encode(st); err != nil {
		return 0, fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	c := &Checkpoint{magic: magic, tangle: b.tangle.Capture(), state: state.Bytes()}
	if k, ok := w.(interface{ KeepCheckpoint(*Checkpoint) }); ok {
		k.KeepCheckpoint(c)
		return 0, nil
	}
	return c.WriteTo(w)
}

// readSnapshot reads an envelope of the wanted kind, of either generation,
// into st, validates the shared sections and the kind's own fields, and
// returns the decoded tangle with its frozen-epoch state restored. Both
// section decoders stop on their last byte (dag.ReadDAG by contract, gob
// because a *bufio.Reader is an io.ByteReader), so the second starts where
// the first ended.
func readSnapshot(br *bufio.Reader, want [4]byte, st snapshotState) (*dag.DAG, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	v1 := magic == v1Magic(want)
	if magic != want && !v1 {
		return nil, wrongMagic(magic, want)
	}
	var d *dag.DAG
	var err error
	if !v1 {
		if d, err = dag.ReadDAG(br); err != nil {
			return nil, fmt.Errorf("core: checkpoint DAG: %w", err)
		}
	}
	if err := gob.NewDecoder(br).Decode(st); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	sec := st.sections()
	if v := *sec.faultsVersion; v < 0 || v > 1 {
		return nil, fmt.Errorf("core: checkpoint fault section has version %d, this build understands 0 and 1 — written by a newer version?", v)
	}
	if *sec.faultsVersion == 1 {
		if err := sec.faults.Validate(); err != nil {
			return nil, fmt.Errorf("core: checkpoint fault schedule: %w", err)
		}
	}
	if v := *sec.compactionVersion; v < 0 || v > 1 {
		return nil, fmt.Errorf("core: checkpoint epoch section has version %d, this build understands 0 and 1 — written by a newer version?", v)
	}
	if *sec.compactionVersion == 1 {
		if !sec.compaction.Enabled() {
			return nil, fmt.Errorf("core: checkpoint epoch section is versioned but its compaction config is disabled")
		}
		if err := sec.compaction.Validate(); err != nil {
			return nil, fmt.Errorf("core: checkpoint compaction config: %w", err)
		}
	}
	if v1 {
		if d, err = dag.ReadDAG(bytes.NewReader(*sec.dag)); err != nil {
			return nil, fmt.Errorf("core: checkpoint DAG: %w", err)
		}
	}
	if *sec.compactionVersion == 1 {
		if err := d.RestoreCompaction(*sec.compaction, *sec.epochs); err != nil {
			return nil, fmt.Errorf("core: checkpoint epoch state: %w", err)
		}
	}
	if err := st.validate(d); err != nil {
		return nil, err
	}
	return d, nil
}

// restore is the resume tail: it verifies that a decoded snapshot belongs to
// this freshly constructed body — same seed, fault schedule, compaction
// config, federation size and seeded genesis — and then adopts its tangle.
// Everything else a checkpoint omits (RNG streams, fault model, partial
// views, eval caches) is a pure function of the configuration, which is what
// these checks pin.
func (b *body) restore(sec sections, d *dag.DAG, clients int) error {
	if *sec.seed != b.seed {
		return fmt.Errorf("core: checkpoint was taken with Seed %d, config has %d — resuming under a different seed would diverge",
			*sec.seed, b.seed)
	}
	if !sec.faults.Equal(b.faults) {
		return fmt.Errorf("core: checkpoint was taken with fault schedule %+v, config has %+v — resuming under a different schedule would diverge",
			*sec.faults, b.faults)
	}
	// The guard band is excluded from the comparison: it is derived from the
	// selector, not chosen by the caller.
	was, now := *sec.compaction, b.compaction
	was.GuardDepth, was.GuardDepthMin, now.GuardDepth, now.GuardDepthMin = 0, 0, 0, 0
	if was != now {
		return fmt.Errorf("core: checkpoint was taken with compaction %+v, config has %+v — resuming under a different epoch config would diverge",
			*sec.compaction, b.compaction)
	}
	if clients != len(b.clients) {
		return fmt.Errorf("core: checkpoint has %d clients, federation has %d", clients, len(b.clients))
	}
	// The checkpointed genesis must match the one the seed regenerates: a
	// mismatch means a different architecture or a tampered snapshot.
	want, got := b.tangle.Genesis().Params, d.Genesis().Params
	if len(want) != len(got) {
		return fmt.Errorf("core: checkpoint genesis has %d params, config architecture needs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("core: checkpoint genesis diverges from the seeded genesis at param %d", i)
		}
	}

	// The restored tangle replaces the one the constructor configured:
	// re-wire its cumulative-weight sweep to the configured budget, rebase the
	// (cold) eval caches so their dense indexing starts at the live floor,
	// exactly as the uninterrupted run's caches did, and point partial views
	// at it.
	b.tangle = d
	b.tangle.SetParallelism(b.pool, b.workers)
	b.rebaseCaches(b.tangle.LiveFloor())
	b.resetViews()
	return nil
}
