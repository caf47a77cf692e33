package core

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestMagicDiagnosis is the contract of the one magic table: every reader,
// handed every sibling format (or garbage, or a short read), names what the
// file is and what to do with it instead.
func TestMagicDiagnosis(t *testing.T) {
	syncCkpt, err := os.ReadFile(goldenSyncPath)
	if err != nil {
		t.Fatal(err)
	}
	asyncCkpt, err := os.ReadFile(goldenAsyncPath)
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
		{"SDC1", syncCkpt, map[string]string{
			"ResumeSimulation": "", "InspectCheckpoint": "",
			"ResumeAsyncSimulation": "synchronous round-simulation checkpoint (resume it with ResumeSimulation)",
		}},
		{"SDA1", asyncCkpt, map[string]string{
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
			"ResumeSimulation":      `bad magic "NOPE" (not a "SDC2" checkpoint)`,
			"ResumeAsyncSimulation": `bad magic "NOPE" (not a "SDA2" checkpoint)`,
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
