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
// Format evolution: a build reads its own generation and the one before, and
// names older ones. The previous generation, SDC2/SDA2, carried the state as
// one gob value, which readSnapshot decodes into the same state structs —
// hence their flat, gob-named fields, reached through sections().

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/faults"
)

var (
	// checkpointMagic identifies round-simulation checkpoints and fixes the
	// version; asyncCheckpointMagic is the event-driven sibling.
	checkpointMagic      = [4]byte{'S', 'D', 'C', '3'}
	asyncCheckpointMagic = [4]byte{'S', 'D', 'A', '3'}
	// The DAG codec's (internal/dag) and event-stream codec's (internal/wire)
	// magics are mirrored so a user who points a resume at a bare tangle
	// snapshot or a saved event log is told what the file actually is.
	codecMagicSDG1       = [4]byte{'S', 'D', 'G', '1'}
	eventStreamMagicSDE1 = [4]byte{'S', 'D', 'E', '1'}
)

// prevMagic is the magic the previous generation of m's kind was written under.
func prevMagic(m [4]byte) [4]byte {
	m[3]--
	return m
}

// wrongMagic explains a magic other than the wanted one: what the sibling
// format is, and what to do with one instead.
func wrongMagic(got, want [4]byte) error {
	var what string
	switch got {
	case checkpointMagic, prevMagic(checkpointMagic):
		what = "a synchronous round-simulation checkpoint (resume it with ResumeSimulation)"
	case asyncCheckpointMagic, prevMagic(asyncCheckpointMagic):
		what = "an asynchronous event-simulation checkpoint (resume it with ResumeAsyncSimulation)"
	case codecMagicSDG1:
		what = "a bare DAG snapshot, not a simulation checkpoint (inspect it with dagstat or dag.ReadDAG)"
	case eventStreamMagicSDE1:
		what = "an event-stream log, not a simulation checkpoint (inspect it with dagstat or wire.ReadAll)"
	default:
		if kind := string(got[:3]); (kind == "SDC" || kind == "SDA") && got[3] >= '1' && got[3] < want[3] {
			return fmt.Errorf("core: %q is an older checkpoint generation than this build reads (%q and %q) — resume it with a build that reads it", got, want, prevMagic(want))
		}
		return fmt.Errorf("core: bad magic %q (not a %q checkpoint)", got, want)
	}
	return fmt.Errorf("core: bad magic %q, want %q — this is %s", got, want, what)
}

// sections points at the fields every checkpoint kind carries, wherever its
// state struct declares them (checkpointState documents what each section
// holds and how its version field evolves).
type sections struct {
	seed              *int64
	faultsVersion     *int
	faults            *faults.Config
	compactionVersion *int
	compaction        *dag.Compaction
	epochs            *[]dag.EpochSummary
}

// snapshotState is a checkpoint kind's state struct.
type snapshotState interface {
	sections() sections
	// codec walks the kind's own fields, after the common sections.
	codec(c *stateCodec)
	info() *CheckpointInfo // the kind's own summary fields (InspectCheckpoint)
	// validate checks the kind's own fields against the decoded tangle, so a
	// corrupted or adversarial snapshot fails with an actionable error —
	// never a panic and never a silently wrong run.
	validate(d *dag.DAG) error
}

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
	enc := &stateCodec{w: w, b: make([]byte, 0, stateChunk)}
	enc.state(c.state)
	enc.flush()
	return int64(n) + tn + enc.n, enc.err
}

// writeSnapshot fills st's shared sections from the body and takes the
// checkpoint: the tangle and the state are captured, and the state section's
// size is counted (Size must answer before anyone encodes). A sink that keeps
// checkpoints rather than bytes says so with a KeepCheckpoint method and is
// handed the value, nothing written; any other gets the bytes, and their
// count back.
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
	count := &stateCodec{}
	count.state(st)
	c := &Checkpoint{magic: magic, tangle: b.tangle.Capture(), state: st, stateSize: count.n}
	if k, ok := w.(interface{ KeepCheckpoint(*Checkpoint) }); ok {
		k.KeepCheckpoint(c)
		return 0, nil
	}
	return c.WriteTo(w)
}

// readSnapshot reads an envelope of the wanted kind, of this generation or
// the previous one, into st, validates the shared sections and the kind's
// own fields, and returns the decoded tangle with its frozen-epoch state
// restored. dag.ReadDAG stops on the tangle's last byte, so the state section
// starts where it ended.
func readSnapshot(br *bufio.Reader, want [4]byte, st snapshotState) (*dag.DAG, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	prev := magic == prevMagic(want)
	if magic != want && !prev {
		return nil, wrongMagic(magic, want)
	}
	d, err := dag.ReadDAG(br)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint DAG: %w", err)
	}
	if prev {
		// gob stops on the value's last byte too: a *bufio.Reader is an
		// io.ByteReader.
		err = gob.NewDecoder(br).Decode(st)
	} else {
		dec := &stateCodec{br: br}
		dec.state(st)
		err = dec.err
	}
	if err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	sec := st.sections()
	if err := cmp.Or(checkVersion("fault", *sec.faultsVersion), checkVersion("epoch", *sec.compactionVersion)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if *sec.faultsVersion == 1 {
		if err := sec.faults.Validate(); err != nil {
			return nil, fmt.Errorf("core: checkpoint fault schedule: %w", err)
		}
	}
	if *sec.compactionVersion == 1 {
		if !sec.compaction.Enabled() {
			return nil, fmt.Errorf("core: checkpoint epoch section is versioned but its compaction config is disabled")
		}
		if err := sec.compaction.Validate(); err != nil {
			return nil, fmt.Errorf("core: checkpoint compaction config: %w", err)
		}
		if err := d.RestoreCompaction(*sec.compaction, *sec.epochs); err != nil {
			return nil, fmt.Errorf("core: checkpoint epoch state: %w", err)
		}
	}
	if err := st.validate(d); err != nil {
		return nil, err
	}
	return d, nil
}

// checkVersion rejects a section version this build cannot read.
func checkVersion(section string, v int) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("checkpoint %s section has version %d, this build understands 0 and 1 — written by a newer version?", section, v)
	}
	return nil
}

// stateChunk is how much of a state section the writer buffers before it
// hands the bytes on.
const stateChunk = 64 << 10

// maxStateList bounds a decoded list length; lists also grow only as their
// elements arrive, so a forged length costs what the input backs.
// maxStateString bounds a string's, which is read whole.
const (
	maxStateList   = 1 << 24
	maxStateString = 1 << 12
)

// A stateCodec is one pass over a state section, field by field in the order
// the kinds' codec methods give: decoding when br is set (each field is
// assigned), otherwise encoding (each field is only read — a capture may be
// encoded on several goroutines at once) into w in chunks, or, with no w,
// counting the bytes that would be written without touching a parameter
// vector. Decoding errors are sticky: after the first, every field reads as
// zero and nothing more is consumed.
type stateCodec struct {
	br  *bufio.Reader
	err error

	w io.Writer
	b []byte
	n int64
}

// state walks a whole state section: the common sections, then the kind's.
func (c *stateCodec) state(st snapshotState) {
	sec := st.sections()
	num(c, sec.seed)
	c.version("fault", sec.faultsVersion)
	if *sec.faultsVersion == 1 {
		f := sec.faults
		for _, v := range []*float64{&f.Delay, &f.Jitter, &f.DropProb, &f.Retransmit, &f.DupProb} {
			c.float(v)
		}
		list(c, &f.Partitions, func(p *faults.Partition) {
			c.float(&p.From)
			c.float(&p.To)
			num(c, &p.Groups)
		})
		for _, v := range []*float64{&f.StragglerFrac, &f.StragglerFactor, &f.ChurnFrac, &f.MaxDowntime} {
			c.float(v)
		}
	}
	c.version("epoch", sec.compactionVersion)
	if *sec.compactionVersion == 1 {
		comp := sec.compaction
		for _, v := range []*int{&comp.Width, &comp.Live, &comp.GuardDepth, &comp.GuardDepthMin} {
			num(c, v)
		}
		c.string(&comp.SpillDir)
		list(c, sec.epochs, func(e *dag.EpochSummary) {
			num(c, &e.Epoch)
			num(c, &e.FirstID)
			num(c, &e.LastID)
			for _, v := range []*int{&e.Txs, &e.Edges, &e.MinRound, &e.MaxRound} {
				num(c, v)
			}
			c.float(&e.MeanTestAcc)
			c.float(&e.MaxTestAcc)
			for _, v := range []*int{&e.Poisoned, &e.WeightSum, &e.WeightMax} {
				num(c, v)
			}
			c.string(&e.SpillFile)
			num(c, &e.SpillBytes)
		})
	}
	st.codec(c)
}

// spill hands the buffered bytes on once a chunk is full; counting, it only
// tallies them.
func (c *stateCodec) spill() {
	if c.w == nil || len(c.b) >= stateChunk {
		c.flush()
	}
}

func (c *stateCodec) flush() {
	if c.w == nil {
		c.n += int64(len(c.b))
	} else if c.err == nil {
		m, err := c.w.Write(c.b)
		c.n += int64(m)
		c.err = err
	}
	c.b = c.b[:0]
}

func (c *stateCodec) varint(v *int64) {
	if c.br == nil {
		c.b = binary.AppendVarint(c.b, *v)
		c.spill()
	} else if c.err == nil {
		*v, c.err = binary.ReadVarint(c.br)
	}
}

// num walks one integer field of any width.
func num[T ~int | ~int64](c *stateCodec, v *T) {
	x := int64(*v)
	c.varint(&x)
	if c.br != nil {
		*v = T(x)
	}
}

// version walks a section's version byte; decoding stops at one this build
// cannot read.
func (c *stateCodec) version(section string, v *int) {
	num(c, v)
	if c.br != nil && c.err == nil {
		c.err = checkVersion(section, *v)
	}
}

// length walks a list or string length.
func (c *stateCodec) length(n int, max int64) int {
	x := int64(n)
	c.varint(&x)
	if c.br != nil && c.err == nil && (x < 0 || x > max) {
		c.err = fmt.Errorf("implausible length %d", x)
		return 0
	}
	return int(x)
}

func (c *stateCodec) float(v *float64) {
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

func (c *stateCodec) bool(v *bool) {
	var x int64
	if *v {
		x = 1
	}
	c.varint(&x)
	if c.br != nil {
		*v = x == 1
	}
}

// string walks a string: a spill file's name or directory, so at most
// maxStateString bytes.
func (c *stateCodec) string(s *string) {
	n := c.length(len(*s), maxStateString)
	if c.br == nil {
		c.b = append(c.b, *s...)
		c.spill()
	} else if c.err == nil && n > 0 {
		b := make([]byte, n)
		_, c.err = io.ReadFull(c.br, b)
		*s = string(b)
	}
}

// span walks a parameter vector: its length, then its raw span.
func (c *stateCodec) span(v *[]float64) {
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

// list walks a slice: its length, then each element through one. Decoding
// appends to the (empty) field, so a list of length zero decodes to nil.
func list[T any](c *stateCodec, s *[]T, one func(*T)) {
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

// ints walks a slice of integers.
func ints[T ~int | ~int64](c *stateCodec, s *[]T) {
	list(c, s, func(v *T) { num(c, v) })
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
