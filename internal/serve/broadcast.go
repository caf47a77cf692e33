// Package serve is the live-experiment serving subsystem: a run registry
// hosting many concurrent engine.Runs on one shared par.Budget, a per-run
// broadcaster fanning each run's event stream out to many subscribers, HTTP
// handlers for run lifecycle (submit/status/pause-to-checkpoint/resume/
// cancel) and event subscription, and a client-side reader (Subscribe) that
// replays a stream back into engine.Hooks — so remote consumption is
// indistinguishable from local observation.
//
// The package sits at the transport boundary and is deliberately NOT one of
// the deterministic packages (see internal/lint): it reads the wall clock
// for reconnect backoff, and it supervises run goroutines. The engines it
// hosts remain fully deterministic — serving a run changes none of its
// numerics, which is what the round-trip equivalence tests pin — and a
// paused run is nothing but its request, its event log and a checkpoint:
// pausing stops the run's scheduler job at a unit boundary and lets the
// engine go, resuming rebuilds it, in the same process or the next.
//
// # Checkpoints
//
// A run's checkpoint is a capture, not a blob. At the cadence (WithCheckpoints'
// save) and at a pause (settle) the engine hands over an engine.Checkpoint,
// and one function, run.keep, installs it: the tangle and the engine state
// pinned where they stand — the ledger is append-only and the engine never
// writes into a history row or parameter vector it holds, so that costs a
// few words per live transaction and per client. The bytes are
// produced when someone reads: GET /runs/{id}/checkpoint encodes into the
// response, Resume into the decoder, Shutdown into the state directory, each
// without a lock and without reading anything the run still writes; a
// checkpoint nobody reads is never encoded. The Checkpoint frame's Size is
// computed from the capture.
//
// # Backpressure
//
// Each run's events flow through a Broadcaster: a bounded ring buffer the
// engine appends to without ever blocking, and per-subscriber cursors that
// read from it. A slow subscriber therefore can never stall the engine —
// if it falls behind by more than the ring's capacity, the overwritten
// frames are dropped *for that subscriber only* and it is told exactly
// which index range it missed (drop semantics). Because every run
// checkpoints periodically and any checkpoint's event index is a valid
// resume point, the subscriber may instead fetch the latest checkpoint and
// continue from its index with full state (snapshot semantics). The choice
// is the subscriber's; the engine never waits either way. The capacity
// bounds the lag, not the memory: the ring starts small and doubles as the
// log grows, so a short run's log costs what it holds.
package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/wire"
)

// DefaultRingSize is the per-run frame ring capacity when the server (or a
// direct NewBroadcaster caller) does not choose one. It bounds how far a
// subscriber may lag before it sees a gap, not what a log costs: the ring
// grows with the frames logged and reaches this size only in a run that
// logs that many. It is sized to hold several checkpoint intervals of a
// busy run, so a subscriber that reconnects "from the last checkpoint's
// event index" ordinarily finds that index still in the ring.
const DefaultRingSize = 1 << 14

// initialRingSlots is the ring a new log starts with (or its capacity, if
// smaller); Append doubles it whenever it fills below capacity.
const initialRingSlots = 64

// A Broadcaster fans one run's event stream out to any number of
// subscribers through a bounded ring buffer.
//
// The appending side (the engine's hooks) is wait-free with respect to
// subscribers: Append takes the mutex for an amortized O(1) ring write and
// a channel swap — it never waits for any subscriber to catch up.
// Subscribers block only in Subscription.Next, on their own goroutines.
//
// Frame i lives in ring[i % len(ring)]. Until the ring reaches capacity it
// holds every frame logged and start stays put; a full ring below capacity
// doubles (capped at capacity) and re-places the frames it holds. Only a
// ring at capacity overwrites, so subscribers see the frames and gaps of a
// ring allocated at capacity up front.
type Broadcaster struct {
	mu       sync.Mutex
	ring     []wire.Frame
	capacity int    // the most slots ring may grow to
	start    uint64 // index of the oldest retained frame
	next     uint64 // index the next appended frame will get
	closed   bool
	notify   chan struct{} // closed and replaced on every append

	// Spill state (EnableSpill): every appended frame is also written to an
	// SDE2 file, so frames the ring has overwritten remain replayable.
	spillPath  string
	spillFile  *os.File
	spillW     *wire.Writer
	spillStart uint64 // index of the first frame in the spill file
	spillErr   error  // first spill write error; spilling stops on it
}

// NewBroadcaster creates a broadcaster whose ring retains the last
// `capacity` frames (capacity <= 0 selects DefaultRingSize), with the event
// log starting at index start — 0 for a fresh run, the checkpoint's event
// index when a daemon re-hosts a resumed run. The capacity is a bound: the
// ring starts at a few dozen slots and grows with the frames logged, so a
// short run's log holds little more than its frames.
func NewBroadcaster(capacity int, start uint64) *Broadcaster {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Broadcaster{
		ring:     make([]wire.Frame, min(capacity, initialRingSlots)),
		capacity: capacity,
		start:    start,
		next:     start,
		notify:   make(chan struct{}),
	}
}

// Append stamps the frame with the next log index and publishes it. It
// never blocks on subscribers: when the ring is full below capacity it
// grows, and when it is full at capacity the oldest frame is overwritten
// (subscribers still pointing at it will observe a gap).
// Appending to a closed broadcaster panics — the engine's hooks are wired
// before the run starts and the End frame is appended last, so a
// post-close append is a lifecycle bug, not an operational condition.
func (b *Broadcaster) Append(f wire.Frame) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		panic("serve: Append after Close")
	}
	if n := len(b.ring); b.next-b.start == uint64(n) && n < b.capacity {
		b.grow(min(2*n, b.capacity))
	}
	f.Index = b.next
	b.ring[int(b.next%uint64(len(b.ring)))] = f
	b.next++
	if b.next-b.start > uint64(len(b.ring)) {
		b.start = b.next - uint64(len(b.ring))
	}
	if b.spillW != nil {
		// The spill write happens inside the lock so the file's frame order
		// is the log order. A frame that is fully written before a gap is
		// detected is durably readable by ReplayGap's independent handle.
		if err := b.spillW.WriteFrame(&f); err != nil {
			b.spillErr = err
			b.spillW = nil
			b.spillFile.Close()
			b.spillFile = nil
		}
	}
	notify := b.notify
	b.notify = make(chan struct{})
	b.mu.Unlock()
	close(notify)
}

// grow moves the held frames [start, next) into a ring of n slots, each to
// its index modulo n. Callers hold b.mu.
func (b *Broadcaster) grow(n int) {
	ring := make([]wire.Frame, n)
	for i := b.start; i < b.next; i++ {
		ring[int(i%uint64(n))] = b.ring[int(i%uint64(len(b.ring)))]
	}
	b.ring = ring
}

// EnableSpill starts mirroring every subsequently appended frame to an SDE2
// file at path, making overwritten ring frames replayable via ReplayGap
// (call it before the first Append to cover the whole log). A spill write
// error stops spilling — the ring and its subscribers are unaffected, gaps
// simply fall back to drop semantics.
func (b *Broadcaster) EnableSpill(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("serve: creating spill file: %w", err)
	}
	w, err := wire.NewWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.spillW != nil || b.closed {
		f.Close()
		return fmt.Errorf("serve: spill already enabled or log closed")
	}
	b.spillPath, b.spillFile, b.spillW = path, f, w
	b.spillStart = b.next
	return nil
}

// ReplayGap streams the spilled frames in [from, to) to emit, in order. It
// reports false when the range cannot be served from disk — spilling never
// started, failed, or began after `from` — in which case the caller falls
// back to drop semantics (Gap frame + Resync). An emit error aborts the
// replay and is returned as-is (the consumer is gone, not the file).
func (b *Broadcaster) ReplayGap(from, to uint64, emit func(*wire.Frame) error) (bool, error) {
	b.mu.Lock()
	path, ok := b.spillPath, b.spillErr == nil && b.spillPath != "" && from >= b.spillStart
	b.mu.Unlock()
	if !ok || from >= to {
		return false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return false, nil
	}
	defer f.Close()
	r, err := wire.NewReader(f)
	if err != nil {
		return false, nil
	}
	for {
		fr, err := r.ReadFrame()
		if err != nil {
			// Truncated or corrupt spill before reaching `to`: the caller
			// falls back to the Gap frame rather than a silently short replay.
			return false, nil
		}
		if fr.Index < from {
			continue
		}
		if fr.Index >= to {
			return true, nil
		}
		if err := emit(fr); err != nil {
			return true, err
		}
		if fr.Index == to-1 {
			return true, nil
		}
	}
}

// Close marks the log complete (after the End frame). Blocked subscribers
// drain the remaining frames and then see io.EOF via Subscription.Next.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	if b.spillFile != nil {
		// The log is complete; the file stays on disk for ReplayGap, which
		// opens its own read handle.
		b.spillFile.Close()
		b.spillFile, b.spillW = nil, nil
	}
	notify := b.notify
	b.notify = make(chan struct{})
	b.mu.Unlock()
	close(notify)
}

// Hooks returns engine hooks that append every event to the log. They are
// invoked on the run goroutine, in the strict event order engine.Run
// guarantees, so log order equals observation order.
func (b *Broadcaster) Hooks() engine.Hooks {
	return engine.Hooks{
		OnRound:   func(ev engine.RoundEvent) { b.Append(wire.Frame{Kind: wire.KindRound, Round: &ev}) },
		OnPublish: func(ev engine.PublishEvent) { b.Append(wire.Frame{Kind: wire.KindPublish, Publish: &ev}) },
		OnProbe:   func(ev engine.ProbeEvent) { b.Append(wire.Frame{Kind: wire.KindProbe, Probe: &ev}) },
	}
}

// NextIndex returns the index the next appended frame will get — equal to
// the length of the run's event log so far.
func (b *Broadcaster) NextIndex() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next
}

// Earliest returns the index of the oldest frame still in the ring.
func (b *Broadcaster) Earliest() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.start
}

// Closed reports whether the log is complete.
func (b *Broadcaster) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// A GapError reports that the frames in [From, To) were overwritten before
// the subscriber read them. The subscription remains usable: Resync skips
// to the oldest retained frame (drop semantics), or the caller fetches the
// latest checkpoint and subscribes anew from its index (snapshot
// semantics).
type GapError struct {
	From, To uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("serve: subscriber fell behind the ring: frames [%d, %d) were dropped — resync or resume from the latest checkpoint", e.From, e.To)
}

// A Subscription is one reader's cursor into a broadcaster's log. It is not
// safe for concurrent use; each subscriber goroutine owns its own.
type Subscription struct {
	b      *Broadcaster
	cursor uint64
}

// Subscribe opens a cursor at the given log index. Any index is accepted:
// one before the ring's tail reports a GapError on the first Next (telling
// the caller exactly what was missed), one beyond the current head blocks
// until the log grows to it.
func (b *Broadcaster) Subscribe(from uint64) *Subscription {
	return &Subscription{b: b, cursor: from}
}

// Next returns the frame at the cursor, blocking until it is available.
// It returns io.EOF once the log is complete and fully consumed, a
// *GapError when the cursor's frame was overwritten, and ctx.Err() when the
// context ends first.
func (s *Subscription) Next(ctx context.Context) (wire.Frame, error) {
	b := s.b
	for {
		b.mu.Lock()
		if s.cursor < b.start {
			gap := &GapError{From: s.cursor, To: b.start}
			b.mu.Unlock()
			return wire.Frame{}, gap
		}
		if s.cursor < b.next {
			f := b.ring[int(s.cursor%uint64(len(b.ring)))]
			b.mu.Unlock()
			s.cursor++
			return f, nil
		}
		if b.closed {
			b.mu.Unlock()
			return wire.Frame{}, io.EOF
		}
		notify := b.notify
		b.mu.Unlock()
		select {
		case <-ctx.Done():
			return wire.Frame{}, ctx.Err()
		case <-notify:
		}
	}
}

// Resync jumps the cursor past a gap to the oldest retained frame and
// returns the new cursor (drop semantics). A no-op when not behind.
func (s *Subscription) Resync() uint64 {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.cursor < b.start {
		s.cursor = b.start
	}
	return s.cursor
}

// Cursor returns the index of the next frame Next will deliver.
func (s *Subscription) Cursor() uint64 { return s.cursor }
