package core

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestMagicDiagnosis is the contract of the one magic table: every reader,
// handed every sibling format (or garbage, or a short read), names what the
// file is and what to do with it instead.
func TestMagicDiagnosis(t *testing.T) {
	syncCkpt, err := os.ReadFile(goldenSyncPathV3)
	if err != nil {
		t.Fatal(err)
	}
	asyncCkpt, err := os.ReadFile(goldenAsyncPathV3)
	if err != nil {
		t.Fatal(err)
	}
	syncV2, err := os.ReadFile(goldenSyncPathV2)
	if err != nil {
		t.Fatal(err)
	}
	asyncV2, err := os.ReadFile(goldenAsyncPathV2)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ResumeSimulation(goldenFed(), goldenSyncConfig(), bytes.NewReader(syncCkpt))
	if err != nil {
		t.Fatal(err)
	}
	var bareDAG bytes.Buffer
	if _, err := sim.DAG().WriteTo(&bareDAG); err != nil {
		t.Fatal(err)
	}

	readers := map[string]func(blob []byte) error{
		"ResumeSimulation": func(blob []byte) error {
			_, err := ResumeSimulation(goldenFed(), goldenSyncConfig(), bytes.NewReader(blob))
			return err
		},
		"ResumeAsyncSimulation": func(blob []byte) error {
			_, err := ResumeAsyncSimulation(goldenFed(), goldenAsyncConfig(), bytes.NewReader(blob))
			return err
		},
		"InspectCheckpoint": func(blob []byte) error {
			_, _, err := InspectCheckpoint(bytes.NewReader(blob))
			return err
		},
	}
	// want maps reader → the fragment its error must contain; "" means the
	// reader accepts the input.
	cases := []struct {
		name string
		blob []byte
		want map[string]string
	}{
		{"SDC3", syncCkpt, map[string]string{
			"ResumeSimulation": "", "InspectCheckpoint": "",
			"ResumeAsyncSimulation": "synchronous round-simulation checkpoint (resume it with ResumeSimulation)",
		}},
		{"SDA3", asyncCkpt, map[string]string{
			"ResumeAsyncSimulation": "", "InspectCheckpoint": "",
			"ResumeSimulation": "asynchronous event-simulation checkpoint (resume it with ResumeAsyncSimulation)",
		}},
		{"SDC2", syncV2, map[string]string{
			"ResumeSimulation": "", "InspectCheckpoint": "",
			"ResumeAsyncSimulation": "synchronous round-simulation checkpoint (resume it with ResumeSimulation)",
		}},
		{"SDA2", asyncV2, map[string]string{
			"ResumeAsyncSimulation": "", "InspectCheckpoint": "",
			"ResumeSimulation": "asynchronous event-simulation checkpoint (resume it with ResumeAsyncSimulation)",
		}},
		// Two generations back is named, not decoded.
		{"SDC1", append([]byte("SDC1"), syncV2[4:]...), map[string]string{
			"ResumeSimulation":      `"SDC1" is an older checkpoint generation than this build reads ("SDC3" and "SDC2")`,
			"ResumeAsyncSimulation": `"SDC1" is an older checkpoint generation than this build reads ("SDA3" and "SDA2")`,
			"InspectCheckpoint":     `"SDC1" is an older checkpoint generation`,
		}},
		{"SDA1", append([]byte("SDA1"), asyncV2[4:]...), map[string]string{
			"ResumeSimulation":      `"SDA1" is an older checkpoint generation`,
			"ResumeAsyncSimulation": `"SDA1" is an older checkpoint generation`,
			"InspectCheckpoint":     `"SDA1" is an older checkpoint generation`,
		}},
		{"SDG1", bareDAG.Bytes(), map[string]string{
			"ResumeSimulation":      "bare DAG snapshot",
			"ResumeAsyncSimulation": "bare DAG snapshot",
			"InspectCheckpoint":     "bare DAG snapshot",
		}},
		{"SDE1", append([]byte("SDE1"), syncCkpt[4:]...), map[string]string{
			"ResumeSimulation":      "event-stream log",
			"ResumeAsyncSimulation": "event-stream log",
			"InspectCheckpoint":     "event-stream log",
		}},
		{"garbage", append([]byte("NOPE"), syncCkpt[4:]...), map[string]string{
			"ResumeSimulation":      `bad magic "NOPE" (not a "SDC3" checkpoint)`,
			"ResumeAsyncSimulation": `bad magic "NOPE" (not a "SDA3" checkpoint)`,
			"InspectCheckpoint":     `bad magic "NOPE"`,
		}},
		{"short read", []byte("SD"), map[string]string{
			"ResumeSimulation":      "reading checkpoint magic",
			"ResumeAsyncSimulation": "reading checkpoint magic",
			"InspectCheckpoint":     "reading checkpoint magic",
		}},
	}
	for _, tc := range cases {
		for reader, want := range tc.want {
			err := readers[reader](tc.blob)
			switch {
			case want == "" && err != nil:
				t.Errorf("%s(%s): %v, want success", reader, tc.name, err)
			case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
				t.Errorf("%s(%s): %v, want an error containing %q", reader, tc.name, err, want)
			}
		}
	}
}

// TestStateCodecWalksEveryField: the state section is written out field by
// field, so a field added to a state struct (or to a type inside one) and
// left out of its codec would come back from a resume as zero. Every field of
// both kinds is set to a distinct non-zero value: decoding what the writer
// wrote must give the struct back, the counting pass must agree with the
// writer, and every proper prefix of the section must fail to decode.
func TestStateCodecWalksEveryField(t *testing.T) {
	for _, st := range []snapshotState{&checkpointState{}, &asyncCheckpointState{}} {
		t.Run(reflect.TypeOf(st).Elem().Name(), func(t *testing.T) {
			next := 0
			fillFields(reflect.ValueOf(st).Elem(), &next)
			sec := st.sections()
			*sec.faultsVersion, *sec.compactionVersion = 1, 1

			var buf bytes.Buffer
			enc := &stateCodec{w: &buf}
			enc.state(st)
			enc.flush()
			count := &stateCodec{}
			count.state(st)
			if enc.err != nil || enc.n != int64(buf.Len()) || count.n != enc.n {
				t.Fatalf("wrote %d bytes (%d reported, %v), counted %d", buf.Len(), enc.n, enc.err, count.n)
			}
			decode := func(b []byte) (snapshotState, error) {
				got := reflect.New(reflect.TypeOf(st).Elem()).Interface().(snapshotState)
				dec := &stateCodec{br: bufio.NewReader(bytes.NewReader(b))}
				dec.state(got)
				return got, dec.err
			}
			got, err := decode(buf.Bytes())
			if err != nil || !reflect.DeepEqual(got, st) {
				t.Fatalf("decoded %+v (%v), want %+v", got, err, st)
			}
			for n := 0; n < buf.Len(); n++ {
				if _, err := decode(buf.Bytes()[:n]); err == nil {
					t.Fatalf("the state section cut to %d of %d bytes decoded", n, buf.Len())
				}
			}
		})
	}
}

// fillFields sets every settable field under v to a distinct non-zero value,
// every slice to two elements.
func fillFields(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fillFields(f, next)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillFields(v.Index(i), next)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	default:
		panic(fmt.Sprintf("fillFields: no value for a %s", v.Type()))
	}
}
