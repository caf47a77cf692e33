// Package wire defines SDE2, the versioned wire format for live experiment
// event streams: the typed engine events (engine.RoundEvent, PublishEvent,
// ProbeEvent) plus run-lifecycle frames, serialized onto any io.Writer and
// decoded back from any io.Reader. It is the network-facing sibling of the
// checkpoint codecs (SDC3/SDA3, internal/core) and the DAG codec (SDG1,
// internal/dag): those snapshot state, SDE2 streams the events between
// snapshots, so a remote consumer replaying an SDE2 stream into
// engine.Hooks observes exactly what a local observer would.
//
// # Format
//
// A stream is the 4-byte magic "SDE2" followed by frames, each walked by the
// module's binary walker (dag.Codec, which also walks the tangle's records
// and the checkpoints' state: zigzag varints, 8-byte little-endian floats, a
// length before every list and string): the index, the kind, then the kind's
// payload field by field. A RoundEvent's Detail is a tag (none,
// *core.RoundResult, *core.AsyncEvent, *fl.RoundResult) and then that value
// (a *core.RoundResult through core.WalkRoundResult, as a checkpoint's
// history row); the Start frame's config is its keys in sorted order, each
// followed by its value. So a stream's bytes are a function of its frames. A
// frame has no size prefix: no reader skips one. A stream always starts
// decoding from its header: random access happens at the server, which
// re-encodes a fresh stream from any event index — that, not byte-level
// seeking, is how `GET /runs/{id}/events?from=N` resumes.
//
// # Indexing
//
// Every frame carries Index, its position in the run's append-only event
// log. Indices are assigned once, at emission, and never change: a stream
// served from index N carries the same frames, bit-for-bit, as the suffix
// of a stream served from 0. Checkpoint frames record the log position a
// state snapshot corresponds to, so "resume from the last checkpoint's
// event index" is a plain Index comparison.
//
// # Versioning
//
// The magic's digit is the format version, and any change to the layout of
// a frame bumps it, as for checkpoints. A build reads its own generation and
// the one before, unless reading the one before needs gob: SDE1 streams (gob
// frames) are named as an older generation, not read. Decoders reject the
// checkpoint-family magics (SDC and SDA of any generation, SDG1) with an
// error that names what the bytes actually are, and vice versa.
package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"slices"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
)

// Magic identifies an SDE2 event stream and fixes the version.
var Magic = [4]byte{'S', 'D', 'E', '2'}

// Kind discriminates the frame types of a stream.
type Kind uint8

const (
	// KindStart opens a run's log: engine identity and config summary.
	KindStart Kind = 1 + iota
	// KindRound carries one engine.RoundEvent (one completed unit).
	KindRound
	// KindPublish carries one engine.PublishEvent.
	KindPublish
	// KindProbe carries one engine.ProbeEvent.
	KindProbe
	// KindCheckpoint records that a state snapshot was taken; its Index is
	// the snapshot's resume point in the event log.
	KindCheckpoint
	// KindGap is inserted by a server when a subscriber fell behind the
	// bounded ring: the frames in [Gap.From, Gap.To) were dropped for this
	// subscriber (drop semantics). The subscriber may instead fetch the
	// latest checkpoint and treat it as a state snapshot covering the gap
	// (snapshot semantics).
	KindGap
	// KindEnd closes a run's log: natural completion, cancellation or
	// failure. No frames follow it.
	KindEnd
)

// kindNames names the kinds, in Kind order.
var kindNames = [...]string{KindStart: "start", KindRound: "round", KindPublish: "publish", KindProbe: "probe",
	KindCheckpoint: "checkpoint", KindGap: "gap", KindEnd: "end"}

// String names the kind for logs and dagstat summaries.
func (k Kind) String() string {
	if k >= KindStart && k <= KindEnd {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// RunInfo is the payload of a KindStart frame: what produced this log.
type RunInfo struct {
	// Engine is the engine's Name (e.g. "specdag", "specdag-async").
	Engine string
	// Label is a submitter-chosen run name, possibly empty.
	Label string
	// Seed is the run's root seed.
	Seed int64
	// Config is a flat human-readable summary of the run configuration
	// (dataset, preset, selector, horizon, …). Consumers must not parse it
	// back into a config — it exists for inspection (dagstat) only.
	Config map[string]string
}

// Checkpoint is the payload of a KindCheckpoint frame.
type Checkpoint struct {
	// Step is the number of engine units completed at the snapshot.
	Step int
	// Size is the snapshot's size in bytes.
	Size int64
}

// Gap is the payload of a KindGap frame.
type Gap struct {
	// From and To bound the dropped half-open index range [From, To).
	From, To uint64
	// CheckpointIndex is the most recent checkpoint's event index at drop
	// time (0 when no checkpoint exists), the snapshot-semantics recovery
	// point.
	CheckpointIndex uint64
}

// End is the payload of a KindEnd frame.
type End struct {
	// Steps is the number of units the engine completed.
	Steps int
	// Completed is true when the engine reached its natural end.
	Completed bool
	// Err carries the failure or cancellation, empty on natural completion.
	Err string
}

// Frame is one element of an event stream. Exactly the payload field
// matching Kind is non-nil; Reader enforces this so a corrupted stream
// surfaces as an error, never as a nil dereference in the consumer.
type Frame struct {
	// Index is the frame's position in the run's append-only event log.
	Index uint64
	Kind  Kind

	Round      *engine.RoundEvent
	Publish    *engine.PublishEvent
	Probe      *engine.ProbeEvent
	Start      *RunInfo
	Checkpoint *Checkpoint
	Gap        *Gap
	End        *End
}

// validate checks the kind/payload coherence contract.
func (f *Frame) validate() error {
	if f.Kind < KindStart || f.Kind > KindEnd {
		return fmt.Errorf("wire: frame %d has unknown kind %d", f.Index, uint8(f.Kind))
	}
	set := []bool{f.Start != nil, f.Round != nil, f.Publish != nil, f.Probe != nil, f.Checkpoint != nil, f.Gap != nil, f.End != nil}
	if !set[f.Kind-KindStart] {
		return fmt.Errorf("wire: frame %d kind %s does not match its payload", f.Index, f.Kind)
	}
	if n := len(slices.DeleteFunc(set, func(s bool) bool { return !s })); n != 1 {
		return fmt.Errorf("wire: frame %d has %d payloads, want exactly 1", f.Index, n)
	}
	return nil
}

// Detail tags: which engine result a RoundEvent frame carries.
const (
	detailNone uint8 = iota
	detailRound
	detailAsync
	detailFL
)

// layout walks a frame: its index, its kind, then the kind's payload. An
// encoding walk only reads the frame.
func (f *Frame) layout(c *dag.Codec) {
	dag.Num(c, &f.Index)
	dag.Num(c, &f.Kind)
	switch f.Kind {
	case KindStart:
		s := payload(c, &f.Start)
		c.String(&s.Engine)
		c.String(&s.Label)
		dag.Num(c, &s.Seed)
		config(c, &s.Config)
	case KindRound:
		r := payload(c, &f.Round)
		c.String(&r.Engine)
		dag.Num(c, &r.Round)
		c.Float(&r.Time)
		c.Float(&r.MeanAcc)
		c.Float(&r.MeanLoss)
		dag.Num(c, &r.Published)
		dag.Num(c, &r.DAGSize)
		detail(c, &r.Detail)
	case KindPublish:
		p := payload(c, &f.Publish)
		c.String(&p.Engine)
		dag.Num(c, &p.Round)
		c.Float(&p.Time)
		dag.Num(c, &p.Issuer)
		dag.Num(c, &p.Tx)
		c.Float(&p.Acc)
		c.Bool(&p.Poisoned)
	case KindProbe:
		p := payload(c, &f.Probe)
		c.String(&p.Engine)
		dag.Num(c, &p.Step)
		c.String(&p.Name)
		c.Float(&p.Value)
	case KindCheckpoint:
		p := payload(c, &f.Checkpoint)
		dag.Num(c, &p.Step)
		dag.Num(c, &p.Size)
	case KindGap:
		p := payload(c, &f.Gap)
		dag.Num(c, &p.From)
		dag.Num(c, &p.To)
		dag.Num(c, &p.CheckpointIndex)
	case KindEnd:
		p := payload(c, &f.End)
		dag.Num(c, &p.Steps)
		c.Bool(&p.Completed)
		c.String(&p.Err)
	default:
		c.Fail(fmt.Errorf("unknown kind %d", uint8(f.Kind)))
	}
}

// payload returns the payload *p, allocated first when decoding.
func payload[T any](c *dag.Codec, p **T) *T {
	if c.Decoding() {
		*p = new(T)
	}
	return *p
}

// config walks a Start frame's config: its size, then each key in sorted
// order followed by its value.
func config(c *dag.Codec, m *map[string]string) {
	keys := slices.Sorted(maps.Keys(*m))
	dag.List(c, &keys, func(k *string) {
		c.String(k)
		v := (*m)[*k]
		c.String(&v)
		if c.Decoding() {
			if *m == nil {
				*m = map[string]string{}
			}
			(*m)[*k] = v
		}
	})
}

// detail walks a RoundEvent's Detail: its tag, then the value.
func detail(c *dag.Codec, d *any) {
	var tag uint8
	switch (*d).(type) {
	case nil:
	case *core.RoundResult:
		tag = detailRound
	case *core.AsyncEvent:
		tag = detailAsync
	case *fl.RoundResult:
		tag = detailFL
	default:
		c.Fail(fmt.Errorf("no layout for a %T detail", *d))
	}
	dag.Num(c, &tag)
	switch tag {
	case detailNone:
	case detailRound:
		core.WalkRoundResult(c, detailOf[core.RoundResult](c, d))
	case detailAsync:
		e := detailOf[core.AsyncEvent](c, d)
		dag.Num(c, &e.Seq)
		c.Float(&e.Time)
		dag.Num(c, &e.Client)
		for _, v := range []*float64{&e.TrainedAcc, &e.TrainedLoss, &e.RefAcc, &e.RefLoss} {
			c.Float(v)
		}
		c.Bool(&e.Published)
	case detailFL:
		r := detailOf[fl.RoundResult](c, d)
		dag.Num(c, &r.Round)
		dag.Ints(c, &r.Selected)
		c.Span(&r.Accs)
		c.Span(&r.Losses)
		c.Float(&r.MeanAcc)
		c.Float(&r.MeanLoss)
	default:
		c.Fail(fmt.Errorf("unknown detail tag %d", tag))
	}
}

// detailOf returns the Detail *d as a *T: allocated and stored when
// decoding, a zero value (not stored) when encoding a nil pointer.
func detailOf[T any](c *dag.Codec, d *any) *T {
	v, _ := (*d).(*T)
	if v == nil {
		v = new(T)
		if c.Decoding() {
			*d = v
		}
	}
	return v
}

// A Writer encodes frames onto one SDE2 stream. Between WriteFrame calls it
// holds at most one frame's bytes.
type Writer struct {
	enc *dag.Codec
}

// NewWriter writes the stream header and returns a frame encoder.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := w.Write(Magic[:]); err != nil {
		return nil, fmt.Errorf("wire: writing stream header: %w", err)
	}
	return &Writer{enc: dag.NewEncoder(w)}, nil
}

// WriteFrame appends one frame to the stream. It only reads the frame, so
// one frame may be written to several streams at once. After an error the
// stream is unusable.
func (w *Writer) WriteFrame(f *Frame) error {
	if err := f.validate(); err != nil {
		return err
	}
	f.layout(w.enc)
	if err := w.enc.Flush(); err != nil {
		return fmt.Errorf("wire: encoding frame %d: %w", f.Index, err)
	}
	return nil
}

// A Reader decodes frames from one SDE2 stream.
type Reader struct {
	br   *bufio.Reader
	dec  *dag.Codec
	prev uint64 // last index seen, for monotonicity
	some bool   // a frame has been read
}

// NewReader checks the stream header and returns a frame decoder. The
// sibling formats of the SD family are recognized and named, so handing the
// wrong artifact to the wrong reader produces a directive, not a decode
// error.
func NewReader(r io.Reader) (*Reader, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("wire: reading stream header: %w", err)
	}
	switch family := string(magic[:3]); {
	case magic == Magic:
	case family == "SDE" && magic[3] >= '1' && magic[3] < Magic[3]:
		return nil, fmt.Errorf("wire: %q is an older event-stream generation than this build reads (%q) — read it with a build that reads it", magic, Magic)
	case family == "SDC":
		return nil, fmt.Errorf("wire: this is a synchronous simulation checkpoint (magic %q), not an event stream — resume it with ResumeSimulation or inspect it with dagstat", magic)
	case family == "SDA":
		return nil, fmt.Errorf("wire: this is an asynchronous simulation checkpoint (magic %q), not an event stream — resume it with ResumeAsyncSimulation or inspect it with dagstat", magic)
	case magic == dag.Magic:
		return nil, fmt.Errorf("wire: this is a bare DAG snapshot (magic %q), not an event stream — inspect it with dagstat or dag.ReadDAG", magic)
	default:
		return nil, fmt.Errorf("wire: bad magic %q (not an %s event stream)", magic, Magic[:])
	}
	br := bufio.NewReader(r)
	return &Reader{br: br, dec: dag.NewDecoder(br)}, nil
}

// ReadFrame decodes the next frame. It returns io.EOF at a clean stream
// end; any other error means the stream is corrupt or truncated mid-frame.
func (r *Reader) ReadFrame() (*Frame, error) {
	if _, err := r.br.Peek(1); err == io.EOF && r.dec.Err() == nil {
		return nil, io.EOF
	}
	var f Frame
	f.layout(r.dec)
	if err := r.dec.Err(); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: decoding frame: %w", err)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	if r.some && f.Index <= r.prev {
		return nil, fmt.Errorf("wire: frame index %d not after previous %d (stream corrupt or spliced)", f.Index, r.prev)
	}
	r.prev, r.some = f.Index, true
	return &f, nil
}

// ReadAll drains the stream into a slice — the convenience form dagstat and
// tests use for finite logs. A stream ending without io.EOF mid-frame
// returns the frames read so far alongside the error.
func ReadAll(r io.Reader) ([]Frame, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Frame
	for {
		f, err := rd.ReadFrame()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, *f)
	}
}

// An EventLog writes a run's event stream to a file or connection through
// engine.Hooks: the file-backed counterpart of the serving broadcaster.
// cmd/specdag's -events flag uses it; indices are assigned in emission
// order from 0.
type EventLog struct {
	w    *Writer
	next uint64
	err  error // first write error; subsequent appends are dropped
}

// NewEventLog opens an SDE2 stream on w, emits the KindStart frame and
// returns the log.
func NewEventLog(w io.Writer, info RunInfo) (*EventLog, error) {
	ww, err := NewWriter(w)
	if err != nil {
		return nil, err
	}
	l := &EventLog{w: ww}
	l.append(&Frame{Kind: KindStart, Start: &info})
	return l, l.err
}

// append stamps the next index and writes the frame, latching the first
// error (hooks have no error return; Err surfaces it).
func (l *EventLog) append(f *Frame) {
	if l.err != nil {
		return
	}
	f.Index = l.next
	l.next++
	l.err = l.w.WriteFrame(f)
}

// Hooks returns hooks that append every engine event to the log. Pass them
// to engine.Run alongside any other hooks.
func (l *EventLog) Hooks() engine.Hooks {
	return engine.Hooks{
		OnRound:   func(ev engine.RoundEvent) { l.append(&Frame{Kind: KindRound, Round: &ev}) },
		OnPublish: func(ev engine.PublishEvent) { l.append(&Frame{Kind: KindPublish, Publish: &ev}) },
		OnProbe:   func(ev engine.ProbeEvent) { l.append(&Frame{Kind: KindProbe, Probe: &ev}) },
	}
}

// End closes the log with the run's outcome. The EventLog must not be
// appended to afterwards.
func (l *EventLog) End(steps int, completed bool, runErr error) {
	e := &End{Steps: steps, Completed: completed}
	if runErr != nil {
		e.Err = runErr.Error()
	}
	l.append(&Frame{Kind: KindEnd, End: e})
}

// NextIndex returns the index the next appended frame will get.
func (l *EventLog) NextIndex() uint64 { return l.next }

// Err returns the first error any append encountered, nil if none.
func (l *EventLog) Err() error { return l.err }

// EncodeFrame returns one frame's bytes as a Writer puts them on a stream.
func EncodeFrame(f *Frame) ([]byte, error) {
	var buf bytes.Buffer
	err := (&Writer{enc: dag.NewEncoder(&buf)}).WriteFrame(f)
	return buf.Bytes(), err
}
