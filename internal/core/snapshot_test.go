package core

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/dag"
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
		// The generation before needed gob, so it is named, not decoded, as
		// are older ones — each against its own family's current magic.
		{"SDC2", append([]byte("SDC2"), syncCkpt[4:]...), map[string]string{
			"ResumeSimulation":      `"SDC2" is an older checkpoint generation than this build reads ("SDC3")`,
			"ResumeAsyncSimulation": `"SDC2" is an older checkpoint generation than this build reads ("SDC3")`,
			"InspectCheckpoint":     `"SDC2" is an older checkpoint generation than this build reads ("SDC3")`,
		}},
		{"SDA2", append([]byte("SDA2"), asyncCkpt[4:]...), map[string]string{
			"ResumeSimulation":      `"SDA2" is an older checkpoint generation than this build reads ("SDA3")`,
			"ResumeAsyncSimulation": `"SDA2" is an older checkpoint generation than this build reads ("SDA3")`,
			"InspectCheckpoint":     `"SDA2" is an older checkpoint generation than this build reads ("SDA3")`,
		}},
		{"SDC1", append([]byte("SDC1"), syncCkpt[4:]...), map[string]string{
			"ResumeSimulation":      `"SDC1" is an older checkpoint generation than this build reads ("SDC3")`,
			"ResumeAsyncSimulation": `"SDC1" is an older checkpoint generation than this build reads ("SDC3")`,
			"InspectCheckpoint":     `"SDC1" is an older checkpoint generation`,
		}},
		{"SDA1", append([]byte("SDA1"), asyncCkpt[4:]...), map[string]string{
			"ResumeSimulation":      `"SDA1" is an older checkpoint generation`,
			"ResumeAsyncSimulation": `"SDA1" is an older checkpoint generation`,
			"InspectCheckpoint":     `"SDA1" is an older checkpoint generation than this build reads ("SDA3")`,
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
		{"SDE2", append([]byte("SDE2"), syncCkpt[4:]...), map[string]string{
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
			com := st.common()
			com.FaultsVersion, com.CompactionVersion = 1, 1

			var buf bytes.Buffer
			enc := dag.NewEncoder(&buf)
			walkState(enc, st)
			enc.Flush()
			count := dag.NewCounter()
			walkState(count, st)
			count.Flush()
			if enc.Err() != nil || enc.Written() != int64(buf.Len()) || count.Written() != enc.Written() {
				t.Fatalf("wrote %d bytes (%d reported, %v), counted %d", buf.Len(), enc.Written(), enc.Err(), count.Written())
			}
			decode := func(b []byte) (snapshotState, error) {
				got := reflect.New(reflect.TypeOf(st).Elem()).Interface().(snapshotState)
				dec := dag.NewDecoder(bufio.NewReader(bytes.NewReader(b)))
				walkState(dec, got)
				return got, dec.Err()
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
// every slice to two elements; it goes into embedded structs, whose exported
// fields are settable.
func fillFields(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() || v.Type().Field(i).Anonymous {
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
