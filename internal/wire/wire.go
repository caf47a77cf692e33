// Package wire defines SDE1, the versioned wire format for live experiment
// event streams: the typed engine events (engine.RoundEvent, PublishEvent,
// ProbeEvent) plus run-lifecycle frames, serialized onto any io.Writer and
// decoded back from any io.Reader. It is the network-facing sibling of the
// checkpoint codecs (SDC3/SDA3, internal/core) and the DAG codec (SDG1,
// internal/dag): those snapshot state, SDE1 streams the events between
// snapshots, so a remote consumer replaying an SDE1 stream into
// engine.Hooks observes exactly what a local observer would.
//
// # Format
//
// A stream is the 4-byte magic "SDE1" followed by a sequence of gob-encoded
// Frame values produced by one persistent encoder (gob transmits type
// descriptors once per stream, so frames after the first are compact). A
// stream always starts decoding from its header: random access happens at
// the server, which re-encodes a fresh stream from any event index — that,
// not byte-level seeking, is how `GET /runs/{id}/events?from=N` resumes.
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
// The magic byte '1' is the format version. Any change to the Frame schema
// that gob cannot absorb transparently (field renames, type changes,
// semantic changes to Index) must bump the magic to "SDE2" and teach
// NewReader to name the mismatch; additive, gob-compatible field additions
// (new optional fields, new Kind values) may keep the version. Decoders
// reject the checkpoint-family magics (SDC and SDA of any generation, SDG1)
// with an error that names what the bytes actually are, and vice versa.
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
)

// Magic identifies an SDE1 event stream and fixes the version.
var Magic = [4]byte{'S', 'D', 'E', '1'}

// magicSDG1 is the bare DAG snapshot's magic, one of the sibling formats
// NewReader names; the checkpoints' are told apart by their first three bytes.
var magicSDG1 = [4]byte{'S', 'D', 'G', '1'}

// The concrete Detail payloads engines attach to RoundEvents must be
// registered so gob can carry them through the interface field: remote
// observers get the full per-unit result, not just the summary. One frame
// per payload is then encoded and dropped, so that gob's process-wide type
// ids (handed out in order of first use, written into every stream) are
// assigned here: a stream's bytes are a function of its frames.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, detail := range []any{&core.RoundResult{}, &core.AsyncEvent{}, &fl.RoundResult{}} {
		gob.Register(detail)
		if err := enc.Encode(&Frame{Round: &engine.RoundEvent{Detail: detail}}); err != nil {
			panic(err)
		}
	}
}

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

// String names the kind for logs and dagstat summaries.
func (k Kind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindRound:
		return "round"
	case KindPublish:
		return "publish"
	case KindProbe:
		return "probe"
	case KindCheckpoint:
		return "checkpoint"
	case KindGap:
		return "gap"
	case KindEnd:
		return "end"
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
	set := 0
	if f.Round != nil {
		set++
	}
	if f.Publish != nil {
		set++
	}
	if f.Probe != nil {
		set++
	}
	if f.Start != nil {
		set++
	}
	if f.Checkpoint != nil {
		set++
	}
	if f.Gap != nil {
		set++
	}
	if f.End != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("wire: frame %d has %d payloads, want exactly 1", f.Index, set)
	}
	ok := false
	switch f.Kind {
	case KindStart:
		ok = f.Start != nil
	case KindRound:
		ok = f.Round != nil
	case KindPublish:
		ok = f.Publish != nil
	case KindProbe:
		ok = f.Probe != nil
	case KindCheckpoint:
		ok = f.Checkpoint != nil
	case KindGap:
		ok = f.Gap != nil
	case KindEnd:
		ok = f.End != nil
	default:
		return fmt.Errorf("wire: frame %d has unknown kind %d", f.Index, uint8(f.Kind))
	}
	if !ok {
		return fmt.Errorf("wire: frame %d kind %s does not match its payload", f.Index, f.Kind)
	}
	return nil
}

// A Writer encodes frames onto one SDE1 stream.
type Writer struct {
	w   io.Writer
	enc *gob.Encoder
}

// NewWriter writes the stream header and returns a frame encoder.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := w.Write(Magic[:]); err != nil {
		return nil, fmt.Errorf("wire: writing stream header: %w", err)
	}
	return &Writer{w: w, enc: gob.NewEncoder(w)}, nil
}

// WriteFrame appends one frame to the stream.
func (w *Writer) WriteFrame(f *Frame) error {
	if err := f.validate(); err != nil {
		return err
	}
	if err := w.enc.Encode(f); err != nil {
		return fmt.Errorf("wire: encoding frame %d: %w", f.Index, err)
	}
	return nil
}

// A Reader decodes frames from one SDE1 stream.
type Reader struct {
	dec  *gob.Decoder
	prev uint64 // last index seen, for monotonicity
	some bool   // a frame has been read
}

// NewReader checks the stream header and returns a frame decoder. The
// sibling formats of the SD family are recognized and named, so handing the
// wrong artifact to the wrong reader produces a directive, not a gob error.
func NewReader(r io.Reader) (*Reader, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("wire: reading stream header: %w", err)
	}
	switch {
	case magic == Magic:
	case string(magic[:3]) == "SDC":
		return nil, fmt.Errorf("wire: this is a synchronous simulation checkpoint (magic %q), not an event stream — resume it with ResumeSimulation or inspect it with dagstat", magic)
	case string(magic[:3]) == "SDA":
		return nil, fmt.Errorf("wire: this is an asynchronous simulation checkpoint (magic %q), not an event stream — resume it with ResumeAsyncSimulation or inspect it with dagstat", magic)
	case magic == magicSDG1:
		return nil, fmt.Errorf("wire: this is a bare DAG snapshot (magic %q), not an event stream — inspect it with dagstat or dag.ReadDAG", magic)
	default:
		return nil, fmt.Errorf("wire: bad magic %q (not an SDE1 event stream)", magic)
	}
	return &Reader{dec: gob.NewDecoder(r)}, nil
}

// ReadFrame decodes the next frame. It returns io.EOF at a clean stream
// end; any other error means the stream is corrupt or truncated mid-frame.
func (r *Reader) ReadFrame() (*Frame, error) {
	var f Frame
	if err := r.dec.Decode(&f); err != nil {
		if err == io.EOF {
			return nil, io.EOF
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

// NewEventLog opens an SDE1 stream on w, emits the KindStart frame and
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

// EncodeFrame serializes one frame as a standalone value (fresh encoder —
// type descriptors included). Tests use it to compare events byte-for-byte;
// streams use Writer, which amortizes descriptors.
func EncodeFrame(f *Frame) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return nil, fmt.Errorf("wire: encoding frame %d: %w", f.Index, err)
	}
	return buf.Bytes(), nil
}
