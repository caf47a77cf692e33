package serve

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/wire"
)

func probeFrame(n int) wire.Frame {
	return wire.Frame{Kind: wire.KindProbe, Probe: &engine.ProbeEvent{Engine: "t", Step: n, Name: "p", Value: float64(n)}}
}

// TestBroadcastOrder pins in-order delivery and clean EOF after Close.
func TestBroadcastOrder(t *testing.T) {
	b := NewBroadcaster(64, 0)
	for i := 0; i < 10; i++ {
		b.Append(probeFrame(i))
	}
	b.Close()
	sub := b.Subscribe(0)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		f, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Index != uint64(i) || f.Probe.Step != i {
			t.Fatalf("frame %d: index %d step %d", i, f.Index, f.Probe.Step)
		}
	}
	if _, err := sub.Next(ctx); err != io.EOF {
		t.Fatalf("after drain: %v, want io.EOF", err)
	}
}

// TestBroadcastGapResync pins the drop semantics: a subscriber behind the
// ring gets a GapError naming the missed range and Resync continues from
// the oldest retained frame.
func TestBroadcastGapResync(t *testing.T) {
	b := NewBroadcaster(4, 0)
	for i := 0; i < 10; i++ {
		b.Append(probeFrame(i))
	}
	sub := b.Subscribe(0)
	_, err := sub.Next(context.Background())
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("want GapError, got %v", err)
	}
	if gap.From != 0 || gap.To != 6 {
		t.Fatalf("gap [%d, %d), want [0, 6)", gap.From, gap.To)
	}
	if got := sub.Resync(); got != 6 {
		t.Fatalf("Resync = %d, want 6", got)
	}
	for i := 6; i < 10; i++ {
		f, err := sub.Next(context.Background())
		if err != nil || f.Index != uint64(i) {
			t.Fatalf("post-resync frame: %v %v", f.Index, err)
		}
	}
}

// TestBroadcastBlocksUntilAppend pins that a caught-up subscriber blocks in
// Next (honoring ctx) rather than spinning or erroring.
func TestBroadcastBlocksUntilAppend(t *testing.T) {
	b := NewBroadcaster(8, 0)
	sub := b.Subscribe(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("empty log: %v, want deadline", err)
	}
	done := make(chan wire.Frame, 1)
	go func() {
		f, err := sub.Next(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- f
	}()
	b.Append(probeFrame(42))
	f := <-done
	if f.Probe.Step != 42 {
		t.Fatalf("woke with step %d, want 42", f.Probe.Step)
	}
}

// TestBroadcastResumedLogStart pins that a log can start at a nonzero index
// (a daemon re-hosting a run from a checkpoint).
func TestBroadcastResumedLogStart(t *testing.T) {
	b := NewBroadcaster(8, 1000)
	b.Append(probeFrame(0))
	if b.Earliest() != 1000 || b.NextIndex() != 1001 {
		t.Fatalf("resumed log at [%d, %d), want [1000, 1001)", b.Earliest(), b.NextIndex())
	}
	f, err := b.Subscribe(1000).Next(context.Background())
	if err != nil || f.Index != 1000 {
		t.Fatalf("resumed read: %v %v", f.Index, err)
	}
}

// TestAppendAfterClosePanics pins the lifecycle contract.
func TestAppendAfterClosePanics(t *testing.T) {
	b := NewBroadcaster(4, 0)
	b.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Append after Close did not panic")
		}
	}()
	b.Append(probeFrame(0))
}

// TestBroadcastStress is the acceptance-criteria stress test: ≥1000
// subscribers — one artificially stalled forever — while the appender (the
// engine's step loop stand-in) pushes tens of thousands of frames. The
// appender must finish without ever waiting on a subscriber, every reading
// subscriber must observe a strictly ordered (possibly gapped) stream, and
// the stalled subscriber must cost nothing.
func TestBroadcastStress(t *testing.T) {
	const (
		subscribers = 1000
		frames      = stressFrames
		ring        = 1024
	)
	b := NewBroadcaster(ring, 0)

	// The stalled subscriber: subscribes, then never calls Next until the
	// very end. If Append waited on subscribers this test would deadlock.
	stalled := b.Subscribe(0)

	var wg sync.WaitGroup
	var delivered, gaps atomic.Int64
	ctx := context.Background()
	for i := 0; i < subscribers; i++ {
		sub := b.Subscribe(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for {
				f, err := sub.Next(ctx)
				switch {
				case err == nil:
					if int64(f.Index) <= last {
						t.Errorf("index %d not after %d", f.Index, last)
						return
					}
					last = int64(f.Index)
					delivered.Add(1)
				case errors.As(err, new(*GapError)):
					gaps.Add(1)
					if got := sub.Resync(); int64(got) <= last {
						t.Errorf("resync to %d not after %d", got, last)
						return
					}
				case errors.Is(err, io.EOF):
					return
				default:
					t.Error(err)
					return
				}
			}
		}()
	}

	// The step loop: appends are synchronous and must complete regardless
	// of subscriber progress. A generous wall-clock bound guards against a
	// regression that makes Append wait on subscribers (which would turn
	// this loop from microseconds-per-append into seconds or a deadlock).
	start := time.Now()
	for i := 0; i < frames; i++ {
		b.Append(probeFrame(i))
	}
	appendTime := time.Since(start)
	b.Close()
	wg.Wait()

	if appendTime > 30*time.Second {
		t.Fatalf("append loop took %v — the step loop is blocking on subscribers", appendTime)
	}
	if delivered.Load() == 0 {
		t.Fatal("no frames delivered")
	}
	// The stalled subscriber wakes at the very end and finds a gap — the
	// ring moved on without it, exactly the contract.
	_, err := stalled.Next(ctx)
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("stalled subscriber got %v, want GapError", err)
	}
	if gap.To != frames-ring {
		t.Fatalf("stalled gap ends at %d, want %d", gap.To, frames-ring)
	}
	if stalled.Resync() != frames-ring {
		t.Fatal("stalled subscriber cannot resync")
	}
	t.Logf("%d frames to %d subscribers in %v (%d delivered, %d gaps)",
		frames, subscribers, appendTime, delivered.Load(), gaps.Load())
}

// ringSlots returns the number of frame slots b's ring holds right now.
func ringSlots(b *Broadcaster) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ring)
}

// TestBroadcastRingModel checks the growing ring against a naive model of a
// ring allocated at capacity up front: after n appends to a log starting at
// index s0, frames [max(s0, s0+n-capacity), s0+n) are retained and every
// earlier cursor sees the gap up to the oldest of them. Append counts cross
// every doubling boundary and run past capacity; logs start at 0 and at a
// resumed index; subscribers open behind the tail, at it, mid-log, at the
// head and beyond it. The ring itself must hold no more slots than
// max(initialRingSlots, 2 × frames held), and never more than capacity.
func TestBroadcastRingModel(t *testing.T) {
	noWait, cancel := context.WithCancel(context.Background())
	cancel() // Next on a caught-up cursor returns at once instead of blocking
	for _, capacity := range []int{1, 3, 64, 100, 1000} {
		// Check after every count next to a doubling boundary or capacity.
		total := 2*capacity + 5
		checks := map[int]bool{0: true, total: true}
		for bound := initialRingSlots; ; bound *= 2 {
			bound = min(bound, capacity)
			for _, n := range []int{bound - 1, bound, bound + 1, bound + 2} {
				checks[n] = true
			}
			if bound == capacity {
				break
			}
		}
		for _, s0 := range []uint64{0, 1_000_003} {
			b := NewBroadcaster(capacity, s0)
			check := func(n int, closed bool) {
				t.Helper()
				next := s0 + uint64(n)
				earliest := s0
				if n > capacity {
					earliest = next - uint64(capacity)
				}
				if got := b.Earliest(); got != earliest {
					t.Fatalf("cap %d start %d after %d: Earliest %d, want %d", capacity, s0, n, got, earliest)
				}
				if got := b.NextIndex(); got != next {
					t.Fatalf("cap %d start %d after %d: NextIndex %d, want %d", capacity, s0, n, got, next)
				}
				held := int(next - earliest)
				if slots := ringSlots(b); slots > capacity || slots > max(initialRingSlots, 2*held) {
					t.Fatalf("cap %d start %d after %d: ring has %d slots for %d frames held", capacity, s0, n, slots, held)
				}
				cursors := []uint64{s0, earliest, earliest + uint64(held/2), next, next + 1}
				if earliest > 0 {
					cursors = append(cursors, earliest-1)
				}
				if next > 0 {
					cursors = append(cursors, next-1)
				}
				for _, c := range cursors {
					sub := b.Subscribe(c)
					f, err := sub.Next(noWait)
					if c < earliest {
						var gap *GapError
						if !errors.As(err, &gap) || gap.From != c || gap.To != earliest {
							t.Fatalf("cap %d start %d after %d: cursor %d got %v, want gap [%d, %d)", capacity, s0, n, c, err, c, earliest)
						}
						if got := sub.Resync(); got != earliest {
							t.Fatalf("cap %d start %d after %d: cursor %d resynced to %d, want %d", capacity, s0, n, c, got, earliest)
						}
						f, err = sub.Next(noWait)
					}
					for want := max(c, earliest); want < next; want++ {
						if err != nil || f.Index != want || f.Probe == nil || f.Probe.Step != int(want-s0) {
							t.Fatalf("cap %d start %d after %d: cursor %d read %+v %v, want frame %d", capacity, s0, n, c, f, err, want)
						}
						f, err = sub.Next(noWait)
					}
					if closed {
						if err != io.EOF {
							t.Fatalf("cap %d start %d after %d: cursor %d at the end of a closed log got %v, want io.EOF", capacity, s0, n, c, err)
						}
					} else if !errors.Is(err, context.Canceled) {
						t.Fatalf("cap %d start %d after %d: cursor %d at the head got %+v %v, want to block", capacity, s0, n, c, f, err)
					}
				}
			}
			for n := 0; n <= total; n++ {
				if n > 0 {
					b.Append(probeFrame(n - 1))
				}
				if checks[n] {
					check(n, false)
				}
			}
			b.Close()
			check(total, true)
		}
	}
}
