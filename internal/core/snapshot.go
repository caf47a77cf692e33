package core

// The snapshot envelope shared by both checkpoint kinds. SDC3 (round engine,
// checkpoint.go) and SDA3 (event engine, checkpoint_async.go) are sibling
// formats: four magic bytes, the tangle as an SDG1 record stream
// (internal/dag), then the engine's state section. Taking a checkpoint encodes
// nothing: the tangle is captured (dag.Capture) and so is the engine state —
// the kind's state struct copies the counters and pins the history rows and
// parameter vectors, which the run never writes again once it holds them.
// An engine hands that value over (its Checkpoint method, engine.Snapshotter);
// Checkpoint.WriteTo streams both into whoever reads, in chunks, and the
// readers parse them off the stream: no buffer of a section's size exists.
//
// The state section is walked by the module's binary walker (dag.Codec):
// varint integers, 8-byte little-endian floats, a length before every list
// and string, and a parameter vector as its length and a raw span. It opens
// with the sections every kind carries — seed, a version byte and the fault
// schedule, a version byte and the compaction config with the frozen epoch
// summaries — and goes on with the kind's own fields. One description of each
// kind's layout (its codec method) drives the pass that sizes a capture, the
// writer and the reader, so they cannot drift apart. A round's result has one
// layout too (WalkRoundResult), walked here and in SDE2 event frames
// (internal/wire).
//
// Format evolution: a build reads its own generation and the one before,
// unless reading the one before needs gob — so SDC2/SDA2, whose state was one
// gob value, are named, not read, as are older generations.

import (
	"bufio"
	"fmt"
	"io"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/faults"
)

var (
	// checkpointMagic identifies round-simulation checkpoints and fixes the
	// version; asyncCheckpointMagic is the event-driven sibling.
	checkpointMagic      = [4]byte{'S', 'D', 'C', '3'}
	asyncCheckpointMagic = [4]byte{'S', 'D', 'A', '3'}
)

// wrongMagic explains a magic other than the wanted one: what the sibling
// format is, and what to do with one instead.
func wrongMagic(got, want [4]byte) error {
	var what string
	switch family := string(got[:3]); {
	case got == checkpointMagic:
		what = "a synchronous round-simulation checkpoint (resume it with ResumeSimulation)"
	case got == asyncCheckpointMagic:
		what = "an asynchronous event-simulation checkpoint (resume it with ResumeAsyncSimulation)"
	case got == dag.Magic:
		what = "a bare DAG snapshot, not a simulation checkpoint (inspect it with dagstat or dag.ReadDAG)"
	case family == "SDE":
		what = "an event-stream log, not a simulation checkpoint (inspect it with dagstat or wire.ReadAll)"
	case (family == "SDC" || family == "SDA") && got[3] >= '1' && got[3] < checkpointMagic[3]:
		return fmt.Errorf("core: %q is an older checkpoint generation than this build reads (\"%s%c\") — resume it with a build that reads it", got, family, checkpointMagic[3])
	default:
		return fmt.Errorf("core: bad magic %q (not a %q checkpoint)", got, want)
	}
	return fmt.Errorf("core: bad magic %q, want %q — this is %s", got, want, what)
}

// snapshotCommon is what every checkpoint kind carries ahead of its own
// fields, each section versioned so it can evolve on its own.
type snapshotCommon struct {
	Seed int64

	// Versioned fault-state section. FaultsVersion is 0 for fault-free runs
	// and 1 when a fault schedule was active — the schedule itself is all that
	// needs saving, because the instantiated model is a pure function of
	// (schedule, seed, clients, horizon).
	FaultsVersion int
	Faults        faults.Config

	// Versioned epoch-compaction section (0 = compaction off). When 1,
	// Compaction holds the active config and Epochs the frozen epoch
	// summaries; the tangle section carries frozen transactions with released
	// (empty) parameter vectors, and the spill log is referenced by name, not
	// embedded, so checkpoint size stays proportional to the live suffix.
	CompactionVersion int
	Compaction        dag.Compaction
	Epochs            []dag.EpochSummary
}

// snapshotState is a checkpoint kind's state struct.
type snapshotState interface {
	common() *snapshotCommon
	// codec walks the kind's own fields, after the common sections.
	codec(c *dag.Codec)
	info() *CheckpointInfo // the kind's own summary fields (InspectCheckpoint)
	// validate checks the kind's own fields against the decoded tangle, so a
	// corrupted or adversarial snapshot fails with an actionable error —
	// never a panic and never a silently wrong run.
	validate(d *dag.DAG) error
}

func (sc *snapshotCommon) common() *snapshotCommon { return sc }

// A Checkpoint is a checkpoint as a value: the magic, a capture of the tangle
// and the captured engine state, taken at a unit boundary. Its bytes are
// produced when someone asks — WriteTo is the one encoder of the envelope, for
// a checkpoint written on the spot and for one kept and read later (or never):
// the captures hold no lock and do not follow the run, so any goroutine may
// encode it at any time, any number of times, and gets the bytes of the
// boundary.
type Checkpoint struct {
	magic     [4]byte
	tangle    *dag.Capture
	state     snapshotState
	stateSize int64
}

// Size is the number of bytes WriteTo writes.
func (c *Checkpoint) Size() int64 { return int64(len(c.magic)+c.tangle.Size()) + c.stateSize }

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
	enc := dag.NewEncoder(w)
	walkState(enc, c.state)
	err = enc.Flush()
	return int64(n) + tn + enc.Written(), err
}

// takeCheckpoint fills st's common sections from the body and takes the
// checkpoint: the tangle and the state are captured, and the state section's
// size is counted (Size must answer before anyone encodes). Nothing is
// encoded; whoever the engine hands the value to writes it, or never does.
func (b *body) takeCheckpoint(magic [4]byte, st snapshotState) *Checkpoint {
	com := st.common()
	com.Seed = b.seed
	if b.faults.Enabled() {
		com.FaultsVersion, com.Faults = 1, b.faults
	}
	if b.compaction.Enabled() {
		com.CompactionVersion = 1
		com.Compaction, com.Epochs = b.tangle.CompactionConfig(), b.tangle.FrozenEpochs()
	}
	count := dag.NewCounter()
	walkState(count, st)
	count.Flush()
	return &Checkpoint{magic: magic, tangle: b.tangle.Capture(), state: st, stateSize: count.Written()}
}

// readSnapshot reads an envelope of the wanted kind into st, validates the
// common sections and the kind's own fields, and returns the decoded tangle
// with its frozen-epoch state restored. dag.ReadDAG stops on the tangle's last
// byte, so the state section starts where it ended.
func readSnapshot(br *bufio.Reader, want [4]byte, st snapshotState) (*dag.DAG, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if magic != want {
		return nil, wrongMagic(magic, want)
	}
	d, err := dag.ReadDAG(br)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint DAG: %w", err)
	}
	dec := dag.NewDecoder(br)
	if walkState(dec, st); dec.Err() != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", dec.Err())
	}
	com := st.common()
	if com.FaultsVersion == 1 {
		if err := com.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("core: checkpoint fault schedule: %w", err)
		}
	}
	if com.CompactionVersion == 1 {
		if !com.Compaction.Enabled() {
			return nil, fmt.Errorf("core: checkpoint epoch section is versioned but its compaction config is disabled")
		}
		if err := com.Compaction.Validate(); err != nil {
			return nil, fmt.Errorf("core: checkpoint compaction config: %w", err)
		}
		if err := d.RestoreCompaction(com.Compaction, com.Epochs); err != nil {
			return nil, fmt.Errorf("core: checkpoint epoch state: %w", err)
		}
	}
	if err := st.validate(d); err != nil {
		return nil, err
	}
	return d, nil
}

// walkState walks a whole state section: the common sections, then the
// kind's.
func walkState(c *dag.Codec, st snapshotState) {
	com := st.common()
	dag.Num(c, &com.Seed)
	walkVersion(c, "fault", &com.FaultsVersion)
	if com.FaultsVersion == 1 {
		f := &com.Faults
		for _, v := range []*float64{&f.Delay, &f.Jitter, &f.DropProb, &f.Retransmit, &f.DupProb} {
			c.Float(v)
		}
		dag.List(c, &f.Partitions, func(p *faults.Partition) {
			c.Float(&p.From)
			c.Float(&p.To)
			dag.Num(c, &p.Groups)
		})
		for _, v := range []*float64{&f.StragglerFrac, &f.StragglerFactor, &f.ChurnFrac, &f.MaxDowntime} {
			c.Float(v)
		}
	}
	walkVersion(c, "epoch", &com.CompactionVersion)
	if com.CompactionVersion == 1 {
		comp := &com.Compaction
		for _, v := range []*int{&comp.Width, &comp.Live, &comp.GuardDepth, &comp.GuardDepthMin} {
			dag.Num(c, v)
		}
		c.String(&comp.SpillDir)
		dag.List(c, &com.Epochs, func(e *dag.EpochSummary) {
			dag.Num(c, &e.Epoch)
			dag.Num(c, &e.FirstID)
			dag.Num(c, &e.LastID)
			for _, v := range []*int{&e.Txs, &e.Edges, &e.MinRound, &e.MaxRound} {
				dag.Num(c, v)
			}
			c.Float(&e.MeanTestAcc)
			c.Float(&e.MaxTestAcc)
			for _, v := range []*int{&e.Poisoned, &e.WeightSum, &e.WeightMax} {
				dag.Num(c, v)
			}
			c.String(&e.SpillFile)
			dag.Num(c, &e.SpillBytes)
		})
	}
	st.codec(c)
}

// WalkRoundResult walks one round's result: a row of SDC3's history and the
// Detail of a round engine's SDE2 RoundEvent frame.
func WalkRoundResult(c *dag.Codec, r *RoundResult) {
	dag.Num(c, &r.Round)
	dag.Ints(c, &r.Active)
	for _, v := range []*[]float64{&r.TrainedAcc, &r.TrainedLoss, &r.RefAcc, &r.RefLoss} {
		c.Span(v)
	}
	dag.List(c, &r.Published, c.Bool)
	dag.Ints(c, &r.RefTx)
	c.Span(&r.FlippedFrac)
	dag.List(c, &r.ActivePoisoned, c.Bool)
	dag.Ints(c, &r.RefPoisonedApprovals)
	dag.Num(c, &r.Walk.Steps)
	dag.Num(c, &r.Walk.Evaluations)
}

// walkVersion walks a section's version byte; decoding stops at one this
// build cannot read.
func walkVersion(c *dag.Codec, section string, v *int) {
	dag.Num(c, v)
	if c.Decoding() && c.Err() == nil && (*v < 0 || *v > 1) {
		c.Fail(fmt.Errorf("checkpoint %s section has version %d, this build understands 0 and 1 — written by a newer version?", section, *v))
	}
}

// restore is the resume tail: it verifies that a decoded snapshot belongs to
// this freshly constructed body — same seed, fault schedule, compaction
// config, federation size and seeded genesis — and then adopts its tangle.
// Everything else a checkpoint omits (RNG streams, fault model, partial
// views, eval caches) is a pure function of the configuration, which is what
// these checks pin.
func (b *body) restore(com *snapshotCommon, d *dag.DAG, clients int) error {
	if com.Seed != b.seed {
		return fmt.Errorf("core: checkpoint was taken with Seed %d, config has %d — resuming under a different seed would diverge",
			com.Seed, b.seed)
	}
	if !com.Faults.Equal(b.faults) {
		return fmt.Errorf("core: checkpoint was taken with fault schedule %+v, config has %+v — resuming under a different schedule would diverge",
			com.Faults, b.faults)
	}
	// The guard band is excluded from the comparison: it is derived from the
	// selector, not chosen by the caller.
	was, now := com.Compaction, b.compaction
	was.GuardDepth, was.GuardDepthMin, now.GuardDepth, now.GuardDepthMin = 0, 0, 0, 0
	if was != now {
		return fmt.Errorf("core: checkpoint was taken with compaction %+v, config has %+v — resuming under a different epoch config would diverge",
			com.Compaction, b.compaction)
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
	// rebase the (cold) eval caches so their dense indexing starts at the
	// live floor, exactly as the uninterrupted run's caches did, and point
	// partial views at it.
	b.tangle = d
	b.rebaseCaches(b.tangle.LiveFloor())
	b.resetViews()
	return nil
}
