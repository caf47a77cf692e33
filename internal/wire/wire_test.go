package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
)

// sampleFrames builds one frame of every kind, with realistic payloads
// (including a Detail interface payload, the part gob only carries for
// registered types).
func sampleFrames() []Frame {
	rr := &core.RoundResult{
		Round:         3,
		Active:        []int{1, 4, 7},
		TrainedAcc:    []float64{0.5, 0.625, 0.75},
		TrainedLoss:   []float64{1.5, 1.25, 1.0},
		RefAcc:        []float64{0.25, 0.5, 0.625},
		RefLoss:       []float64{2, 1.75, 1.5},
		Published:     []bool{true, false, true},
		WalkDurations: []time.Duration{10, 20, 30},
	}
	asyncEv := &core.AsyncEvent{Seq: 9, Time: 42.5, Client: 4, TrainedAcc: 0.875, Published: true}
	return []Frame{
		{Index: 10, Kind: KindStart, Start: &RunInfo{
			Engine: "specdag", Label: "t", Seed: 7,
			Config: map[string]string{"dataset": "fmnist", "rounds": "30"},
		}},
		{Index: 11, Kind: KindPublish, Publish: &engine.PublishEvent{
			Engine: "specdag", Round: 3, Issuer: 4, Tx: 17, Acc: 0.75, Poisoned: true,
		}},
		{Index: 12, Kind: KindRound, Round: &engine.RoundEvent{
			Engine: "specdag", Round: 3, MeanAcc: 0.625, MeanLoss: 1.25,
			Published: 2, DAGSize: 18, Detail: rr,
		}},
		{Index: 13, Kind: KindRound, Round: &engine.RoundEvent{
			Engine: "specdag-async", Round: 9, Time: 42.5, MeanAcc: 0.875,
			DAGSize: 11, Detail: asyncEv,
		}},
		{Index: 14, Kind: KindProbe, Probe: &engine.ProbeEvent{
			Engine: "specdag", Step: 4, Name: "pureness", Value: 0.5,
		}},
		{Index: 15, Kind: KindCheckpoint, Checkpoint: &Checkpoint{Step: 4, Size: 12345}},
		{Index: 16, Kind: KindGap, Gap: &Gap{From: 3, To: 9, CheckpointIndex: 5}},
		{Index: 17, Kind: KindEnd, End: &End{Steps: 4, Completed: true}},
	}
}

// TestFrameRoundTrip pins that every frame kind survives encode/decode
// field-for-field, including the interface-typed Detail payloads.
func TestFrameRoundTrip(t *testing.T) {
	frames := sampleFrames()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if err := w.WriteFrame(&frames[i]); err != nil {
			t.Fatalf("writing frame %d: %v", i, err)
		}
	}

	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !reflect.DeepEqual(got[i], frames[i]) {
			t.Errorf("frame %d diverged:\n got %+v\nwant %+v", i, got[i], frames[i])
		}
	}
	// The Detail payloads must come back as their concrete types.
	if _, ok := got[2].Round.Detail.(*core.RoundResult); !ok {
		t.Errorf("sync Detail decoded as %T, want *core.RoundResult", got[2].Round.Detail)
	}
	if _, ok := got[3].Round.Detail.(*core.AsyncEvent); !ok {
		t.Errorf("async Detail decoded as %T, want *core.AsyncEvent", got[3].Round.Detail)
	}
}

// TestMagicConfusion pins the actionable errors for the sibling formats and
// garbage headers.
func TestMagicConfusion(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"sync checkpoint", []byte("SDC3rest"), "synchronous simulation checkpoint"},
		{"async checkpoint", []byte("SDA3rest"), "asynchronous simulation checkpoint"},
		{"sync checkpoint v2", []byte("SDC2rest"), "synchronous simulation checkpoint"},
		{"async checkpoint v2", []byte("SDA2rest"), "asynchronous simulation checkpoint"},
		{"sync checkpoint v1", []byte("SDC1rest"), "synchronous simulation checkpoint"},
		{"async checkpoint v1", []byte("SDA1rest"), "asynchronous simulation checkpoint"},
		{"dag snapshot", []byte("SDG1rest"), "bare DAG snapshot"},
		{"garbage", []byte("NOPE"), "not an SDE1 event stream"},
		{"empty", nil, "reading stream header"},
		{"short", []byte("SD"), "reading stream header"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewReader(bytes.NewReader(c.data))
			if err == nil {
				t.Fatal("NewReader accepted bad header")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestTruncation pins that a stream cut at any byte either yields a clean
// prefix of the frames or an error — never a panic, never an invented frame.
func TestTruncation(t *testing.T) {
	frames := sampleFrames()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := range frames {
		if err := w.WriteFrame(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		got, err := ReadAll(bytes.NewReader(full[:cut]))
		if err == nil && len(got) == len(frames) {
			t.Fatalf("truncation at %d of %d decoded the full stream", cut, len(full))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], frames[i]) {
				t.Fatalf("truncation at %d: frame %d is not a clean prefix", cut, i)
			}
		}
	}
}

// TestIndexMonotonicity pins that spliced streams (repeated or reordered
// indices) are rejected.
func TestIndexMonotonicity(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	ev := engine.ProbeEvent{Engine: "e", Name: "p"}
	for _, idx := range []uint64{5, 6, 6} {
		if err := w.WriteFrame(&Frame{Index: idx, Kind: KindProbe, Probe: &ev}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "not after previous") {
		t.Fatalf("repeated index not rejected: %v", err)
	}
}

// TestFrameValidation pins the kind/payload coherence checks on both ends.
func TestFrameValidation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.WriteFrame(&Frame{Kind: KindRound}); err == nil {
		t.Error("frame with no payload accepted")
	}
	if err := w.WriteFrame(&Frame{
		Kind:  KindRound,
		Round: &engine.RoundEvent{}, Probe: &engine.ProbeEvent{},
	}); err == nil {
		t.Error("frame with two payloads accepted")
	}
	if err := w.WriteFrame(&Frame{Kind: KindEnd, Round: &engine.RoundEvent{}}); err == nil {
		t.Error("kind/payload mismatch accepted")
	}
}

// TestEventLog drives the file-backed log through engine.Hooks and pins the
// resulting stream structure: start, events in hook order, checkpoint, end.
func TestEventLog(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewEventLog(&buf, 100, RunInfo{Engine: "specdag", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := log.Hooks()
	h.OnPublish(engine.PublishEvent{Engine: "specdag", Tx: 1})
	h.OnRound(engine.RoundEvent{Engine: "specdag", Round: 0})
	log.Checkpoint(1, 99)
	h.OnProbe(engine.ProbeEvent{Engine: "specdag", Name: "p"})
	log.End(1, false, errors.New("canceled"))
	if err := log.Err(); err != nil {
		t.Fatal(err)
	}
	if log.NextIndex() != 106 {
		t.Errorf("NextIndex = %d, want 106", log.NextIndex())
	}

	frames, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{KindStart, KindPublish, KindRound, KindCheckpoint, KindProbe, KindEnd}
	if len(frames) != len(wantKinds) {
		t.Fatalf("got %d frames, want %d", len(frames), len(wantKinds))
	}
	for i, f := range frames {
		if f.Kind != wantKinds[i] {
			t.Errorf("frame %d kind %s, want %s", i, f.Kind, wantKinds[i])
		}
		if f.Index != uint64(100+i) {
			t.Errorf("frame %d index %d, want %d", i, f.Index, 100+i)
		}
	}
	if end := frames[len(frames)-1].End; end.Completed || end.Err != "canceled" {
		t.Errorf("end frame %+v, want canceled", end)
	}
}

// TestEventLogLatchesError pins that a failing sink surfaces through Err
// instead of panicking inside hooks (which have no error return).
func TestEventLogLatchesError(t *testing.T) {
	sink := &failSwitch{}
	log, err := NewEventLog(sink, 0, RunInfo{Engine: "e"})
	if err != nil {
		t.Fatal(err)
	}
	sink.fail = true
	h := log.Hooks()
	h.OnRound(engine.RoundEvent{Engine: "e"})
	h.OnRound(engine.RoundEvent{Engine: "e"})
	if log.Err() == nil {
		t.Fatal("sink failure not latched")
	}
}

// failSwitch is an io.Writer that fails once told to.
type failSwitch struct{ fail bool }

func (f *failSwitch) Write(p []byte) (int, error) {
	if f.fail {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}
