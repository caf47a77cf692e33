package core

// The snapshot envelope shared by both checkpoint kinds. SDC3 (round engine,
// checkpoint.go) and SDA3 (event engine, checkpoint_async.go) are sibling
// formats: four magic bytes, the tangle as an SDG1 record stream
// (internal/dag), then the engine's state section. Taking a checkpoint encodes
// nothing: the tangle is captured (dag.Capture) and so is the engine state —
// the kind's state struct copies the counters and pins the history rows and
// parameter vectors, which the run never writes again once it holds them.
// Checkpoint.WriteTo streams both into whoever reads, in chunks, and the
// readers parse them off the stream: no buffer of a section's size exists.
//
// The state section is hand-written in encoding/binary: varint integers,
// 8-byte little-endian floats, a length before every list and string, and a
// parameter vector as its length and a raw span (dag.AppendFloats). It opens
// with the sections every kind carries — seed, a version byte and the fault
// schedule, a version byte and the compaction config with the frozen epoch
// summaries — and goes on with the kind's own fields. One description of each
// kind's layout (its codec method) drives the pass that sizes a capture, the
// writer and the reader, so they cannot drift apart.
//
// Format evolution: a build reads its own generation and the one before,
// unless reading the one before needs gob — so SDC2/SDA2, whose state was one
// gob value, are named, not read, as are older generations. The walker is
// exported as Codec: SDE2 event frames (internal/wire) are walked by it too.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/faults"
)

var (
	// checkpointMagic identifies round-simulation checkpoints and fixes the
	// version; asyncCheckpointMagic is the event-driven sibling.
	checkpointMagic      = [4]byte{'S', 'D', 'C', '3'}
	asyncCheckpointMagic = [4]byte{'S', 'D', 'A', '3'}
	// The DAG codec's (internal/dag) magic is mirrored, and the event-stream
	// codec's (internal/wire) family, so a user who points a resume at a bare
	// tangle snapshot or a saved event log is told what the file actually is.
	codecMagicSDG1 = [4]byte{'S', 'D', 'G', '1'}
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
	case got == codecMagicSDG1:
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
	// (empty) parameter vectors, and spill files are referenced by path, not
	// embedded, so checkpoint size stays proportional to the live suffix.
	CompactionVersion int
	Compaction        dag.Compaction
	Epochs            []dag.EpochSummary
}

// snapshotState is a checkpoint kind's state struct.
type snapshotState interface {
	common() *snapshotCommon
	// codec walks the kind's own fields, after the common sections.
	codec(c *Codec)
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
	enc := &Codec{w: w, b: make([]byte, 0, stateChunk)}
	enc.state(c.state)
	enc.Flush()
	return int64(n) + tn + enc.n, enc.err
}

// writeSnapshot fills st's common sections from the body and takes the
// checkpoint: the tangle and the state are captured, and the state section's
// size is counted (Size must answer before anyone encodes). A sink that keeps
// checkpoints rather than bytes says so with a KeepCheckpoint method and is
// handed the value, nothing written; any other gets the bytes, and their
// count back.
func (b *body) writeSnapshot(w io.Writer, magic [4]byte, st snapshotState) (int64, error) {
	com := st.common()
	com.Seed = b.seed
	if b.faults.Enabled() {
		com.FaultsVersion, com.Faults = 1, b.faults
	}
	if b.compaction.Enabled() {
		com.CompactionVersion = 1
		com.Compaction, com.Epochs = b.tangle.CompactionConfig(), b.tangle.FrozenEpochs()
	}
	count := &Codec{}
	count.state(st)
	c := &Checkpoint{magic: magic, tangle: b.tangle.Capture(), state: st, stateSize: count.n}
	if k, ok := w.(interface{ KeepCheckpoint(*Checkpoint) }); ok {
		k.KeepCheckpoint(c)
		return 0, nil
	}
	return c.WriteTo(w)
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
	dec := NewDecoder(br)
	dec.state(st)
	if dec.err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", dec.err)
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

// stateChunk is how much of a layout an encoding Codec buffers before it
// hands the bytes on.
const stateChunk = 64 << 10

// maxStateList bounds a decoded list length, maxStateString a string's (an
// event frame's label or error may be as long as a request body). Both grow
// only as their elements arrive, so a forged length costs what the input
// backs; encoding a longer one is an error, so what is written reads back.
const (
	maxStateList   = 1 << 24
	maxStateString = 1 << 24
)

// A Codec is one pass over a binary layout — a checkpoint's state section or
// an SDE2 event frame — field by field in the order a layout description
// gives: decoding (NewDecoder; each field is assigned), otherwise encoding
// (NewEncoder; each field is only read, so one value may be encoded on several
// goroutines at once) into w in chunks, or, with no w, counting the bytes
// that would be written without touching a parameter vector. Errors are
// sticky: after the first, every field decodes as zero, nothing more is
// consumed or written, and Err reports it.
//
// The layout is varint integers (zigzag), 8-byte little-endian floats, a
// length before every list and string, and a parameter vector as its length
// and a raw span (dag.AppendFloats).
type Codec struct {
	br  *bufio.Reader
	err error

	w io.Writer
	b []byte
	n int64
}

// NewEncoder returns a Codec that writes what it walks to w; Flush hands on
// what it still buffers.
func NewEncoder(w io.Writer) *Codec { return &Codec{w: w} }

// NewDecoder returns a Codec that reads what it walks off br.
func NewDecoder(br *bufio.Reader) *Codec { return &Codec{br: br} }

// Decoding reports whether the walk assigns the fields (or only reads them).
func (c *Codec) Decoding() bool { return c.br != nil }

// Err is the first error the walk met.
func (c *Codec) Err() error { return c.err }

// Fail records err, unless an earlier error is recorded.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// state walks a whole state section: the common sections, then the kind's.
func (c *Codec) state(st snapshotState) {
	com := st.common()
	Num(c, &com.Seed)
	c.version("fault", &com.FaultsVersion)
	if com.FaultsVersion == 1 {
		f := &com.Faults
		for _, v := range []*float64{&f.Delay, &f.Jitter, &f.DropProb, &f.Retransmit, &f.DupProb} {
			c.Float(v)
		}
		List(c, &f.Partitions, func(p *faults.Partition) {
			c.Float(&p.From)
			c.Float(&p.To)
			Num(c, &p.Groups)
		})
		for _, v := range []*float64{&f.StragglerFrac, &f.StragglerFactor, &f.ChurnFrac, &f.MaxDowntime} {
			c.Float(v)
		}
	}
	c.version("epoch", &com.CompactionVersion)
	if com.CompactionVersion == 1 {
		comp := &com.Compaction
		for _, v := range []*int{&comp.Width, &comp.Live, &comp.GuardDepth, &comp.GuardDepthMin} {
			Num(c, v)
		}
		c.String(&comp.SpillDir)
		List(c, &com.Epochs, func(e *dag.EpochSummary) {
			Num(c, &e.Epoch)
			Num(c, &e.FirstID)
			Num(c, &e.LastID)
			for _, v := range []*int{&e.Txs, &e.Edges, &e.MinRound, &e.MaxRound} {
				Num(c, v)
			}
			c.Float(&e.MeanTestAcc)
			c.Float(&e.MaxTestAcc)
			for _, v := range []*int{&e.Poisoned, &e.WeightSum, &e.WeightMax} {
				Num(c, v)
			}
			c.String(&e.SpillFile)
			Num(c, &e.SpillBytes)
		})
	}
	st.codec(c)
}

// RoundResult walks one round's result: a row of SDC3's history and the
// Detail of a round engine's SDE2 RoundEvent frame.
func (c *Codec) RoundResult(r *RoundResult) {
	Num(c, &r.Round)
	Ints(c, &r.Active)
	for _, v := range []*[]float64{&r.TrainedAcc, &r.TrainedLoss, &r.RefAcc, &r.RefLoss} {
		c.Span(v)
	}
	List(c, &r.Published, c.Bool)
	Ints(c, &r.RefTx)
	c.Span(&r.FlippedFrac)
	List(c, &r.ActivePoisoned, c.Bool)
	Ints(c, &r.RefPoisonedApprovals)
	Num(c, &r.Walk.Steps)
	Num(c, &r.Walk.Evaluations)
}

// spill hands the buffered bytes on once a chunk is full; counting, it only
// tallies them.
func (c *Codec) spill() {
	if c.w == nil || len(c.b) >= stateChunk {
		c.Flush()
	}
}

// Flush hands the buffered bytes on (or tallies them) and returns Err.
func (c *Codec) Flush() error {
	if c.w == nil {
		c.n += int64(len(c.b))
	} else if c.err == nil {
		m, err := c.w.Write(c.b)
		c.n += int64(m)
		c.err = err
	}
	c.b = c.b[:0]
	return c.err
}

func (c *Codec) varint(v *int64) {
	if c.br == nil {
		c.b = binary.AppendVarint(c.b, *v)
		c.spill()
	} else if c.err == nil {
		if *v, c.err = binary.ReadVarint(c.br); c.err != nil {
			*v = 0
		}
	}
}

// Num walks one integer field of any width; decoding a value the field
// cannot hold is an error.
func Num[T ~int | ~int64 | ~uint8 | ~uint64](c *Codec, v *T) {
	x := int64(*v)
	c.varint(&x)
	if c.br != nil {
		*v = T(x)
		if int64(*v) != x {
			c.Fail(fmt.Errorf("%d overflows a %T", x, *v))
		}
	}
}

// version walks a section's version byte; decoding stops at one this build
// cannot read.
func (c *Codec) version(section string, v *int) {
	Num(c, v)
	if c.br != nil && c.err == nil && (*v < 0 || *v > 1) {
		c.err = fmt.Errorf("checkpoint %s section has version %d, this build understands 0 and 1 — written by a newer version?", section, *v)
	}
}

// length walks a list or string length; one above max is an error.
func (c *Codec) length(n int, max int64) int {
	x := int64(n)
	if c.br == nil && x > max {
		c.Fail(fmt.Errorf("length %d exceeds %d", x, max))
	}
	c.varint(&x)
	if c.br != nil && c.err == nil && (x < 0 || x > max) {
		c.err = fmt.Errorf("implausible length %d", x)
		return 0
	}
	return int(x)
}

// Float walks a float64.
func (c *Codec) Float(v *float64) {
	if c.br == nil {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
		c.spill()
		return
	}
	var b [8]byte
	if c.err == nil {
		_, c.err = io.ReadFull(c.br, b[:])
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// Bool walks a bool.
func (c *Codec) Bool(v *bool) {
	var x int64
	if *v {
		x = 1
	}
	c.varint(&x)
	if c.br != nil {
		*v = x == 1
	}
}

// String walks a string: its length, then its bytes, decoded in steps of at
// most what has arrived.
func (c *Codec) String(s *string) {
	n := c.length(len(*s), maxStateString)
	if c.br == nil {
		c.b = append(c.b, *s...)
		c.spill()
		return
	}
	b := make([]byte, 0, min(n, 1<<12))
	for len(b) < n && c.err == nil {
		k := min(n-len(b), max(len(b), 1<<12))
		b = slices.Grow(b, k)[:len(b)+k]
		_, c.err = io.ReadFull(c.br, b[len(b)-k:])
	}
	*s = string(b)
}

// Span walks a parameter vector: its length, then its raw span.
func (c *Codec) Span(v *[]float64) {
	n := c.length(len(*v), dag.MaxParams)
	switch {
	case c.br != nil:
		if c.err == nil && n > 0 {
			*v, c.err = dag.ReadFloats(c.br, n)
		}
	case c.w == nil:
		c.n += 8 * int64(n)
	default:
		c.b = dag.AppendFloats(c.b, *v)
		c.spill()
	}
}

// List walks a slice: its length, then each element through one. Decoding
// appends to the (empty) field, so a list of length zero decodes to nil.
func List[T any](c *Codec, s *[]T, one func(*T)) {
	n := c.length(len(*s), maxStateList)
	if c.br == nil {
		for i := range *s {
			one(&(*s)[i])
		}
		return
	}
	for i := 0; i < n && c.err == nil; i++ {
		var v T
		one(&v)
		*s = append(*s, v)
	}
}

// Ints walks a slice of integers.
func Ints[T ~int | ~int64](c *Codec, s *[]T) {
	List(c, s, func(v *T) { Num(c, v) })
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
