package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
)

// sampleFrames builds one frame of every kind, with realistic payloads
// (including Detail interface payloads, which travel behind a tag).
func sampleFrames() []Frame {
	rr := &core.RoundResult{
		Round:       3,
		Active:      []int{1, 4, 7},
		TrainedAcc:  []float64{0.5, 0.625, 0.75},
		TrainedLoss: []float64{1.5, 1.25, 1.0},
		RefAcc:      []float64{0.25, 0.5, 0.625},
		RefLoss:     []float64{2, 1.75, 1.5},
		Published:   []bool{true, false, true},
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
		{"event stream v1", []byte("SDE1rest"), `"SDE1" is an older event-stream generation than this build reads ("SDE2")`},
		{"garbage", []byte("NOPE"), "not an SDE2 event stream"},
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

// TestFrameLayoutWalksEveryField: a frame is written out field by field, so
// a field added to a payload (or to a Detail type) and left out of the
// layout would come back from a stream as zero. Every field of every payload
// and of the three Detail types is set to a distinct non-zero value: reading
// what the writer wrote must give the frame back, and every proper prefix of
// the frame must fail to decode.
func TestFrameLayoutWalksEveryField(t *testing.T) {
	next := 0
	for kind := KindStart; kind <= KindEnd; kind++ {
		details := []any{nil}
		if kind == KindRound {
			details = append(details, &core.RoundResult{}, &core.AsyncEvent{}, &fl.RoundResult{})
		}
		for _, d := range details {
			f := Frame{Index: 1<<40 + uint64(next), Kind: kind}
			name := kind.String()
			p := reflect.ValueOf(&f).Elem().FieldByName(strings.ToUpper(name[:1]) + name[1:])
			p.Set(reflect.New(p.Type().Elem()))
			fillFields(p.Elem(), &next)
			if d != nil {
				fillFields(reflect.ValueOf(d).Elem(), &next)
				f.Round.Detail = d
			}
			t.Run(fmt.Sprintf("%s-%T", kind, d), func(t *testing.T) {
				var buf bytes.Buffer
				w, _ := NewWriter(&buf)
				if err := w.WriteFrame(&f); err != nil {
					t.Fatal(err)
				}
				got, err := ReadAll(bytes.NewReader(buf.Bytes()))
				if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], f) {
					t.Fatalf("decoded %+v (%v), want %+v", got, err, f)
				}
				for n := len(Magic) + 1; n < buf.Len(); n++ {
					if _, err := ReadAll(bytes.NewReader(buf.Bytes()[:n])); err == nil {
						t.Fatalf("the frame cut to %d of %d bytes decoded", n, buf.Len())
					}
				}
			})
		}
	}
}

// fillFields sets every field under v to a distinct non-zero value, every
// slice and map to two elements; an interface (Detail) is left to the caller.
func fillFields(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillFields(v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillFields(v.Index(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for range 2 {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillFields(k, next)
			fillFields(e, next)
			v.SetMapIndex(k, e)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint64:
		v.SetUint(1<<40 + uint64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Interface:
	default:
		panic(fmt.Sprintf("fillFields: no value for a %s", v.Type()))
	}
}

// TestOutOfRangeVarint: a decoded integer its field cannot hold (a Kind
// above 255) is a decode error, not a truncation.
func TestOutOfRangeVarint(t *testing.T) {
	blob := binary.AppendVarint(binary.AppendVarint(Magic[:], 5), 256+int64(KindEnd))
	_, err := ReadAll(bytes.NewReader(blob))
	if err == nil || errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("kind 263: %v, want an overflow error", err)
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
// resulting stream structure: start, events in hook order, end.
func TestEventLog(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewEventLog(&buf, RunInfo{Engine: "specdag", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := log.Hooks()
	h.OnPublish(engine.PublishEvent{Engine: "specdag", Tx: 1})
	h.OnRound(engine.RoundEvent{Engine: "specdag", Round: 0})
	h.OnProbe(engine.ProbeEvent{Engine: "specdag", Name: "p"})
	log.End(1, false, errors.New("canceled"))
	if err := log.Err(); err != nil {
		t.Fatal(err)
	}
	if log.NextIndex() != 5 {
		t.Errorf("NextIndex = %d, want 5", log.NextIndex())
	}

	frames, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{KindStart, KindPublish, KindRound, KindProbe, KindEnd}
	if len(frames) != len(wantKinds) {
		t.Fatalf("got %d frames, want %d", len(frames), len(wantKinds))
	}
	for i, f := range frames {
		if f.Kind != wantKinds[i] {
			t.Errorf("frame %d kind %s, want %s", i, f.Kind, wantKinds[i])
		}
		if f.Index != uint64(i) {
			t.Errorf("frame %d index %d, want %d", i, f.Index, i)
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
	log, err := NewEventLog(sink, RunInfo{Engine: "e"})
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

// TestReadFrameAllocs pins what decoding an async Round frame allocates: five
// allocations for the frame, its payloads and its string, and none per float.
// dag.Codec.Float reads its eight bytes where bufio holds them; when it
// copied them through a stack array that escaped, each of the frame's eight
// floats cost one more (13 in all).
func TestReadFrameAllocs(t *testing.T) {
	frame := sampleFrames()[3]
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		f := frame
		f.Index = uint64(i)
		if err := w.WriteFrame(&f); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(n-1, func() {
		if _, err := r.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("ReadFrame of an async Round frame: %v allocations, want at most 5", allocs)
	}
}
