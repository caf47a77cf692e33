package wire

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"
)

// The committed SDE1 fixture is sampleFrames() — one frame of each kind,
// with a sync and an async Detail payload — written by NewWriter and
// WriteFrame. Spill files and served streams are this format, so a build
// that can no longer read it can no longer replay a lapped ring. gob writes
// the Start frame's config map in map order, so the bytes are not a
// function of the frames and the test compares values. Regenerate only with
// a deliberate, versioned format change (which keeps this file as the
// older generation):
//
//	SPECDAG_REGEN_GOLDEN=1 go test ./internal/wire/ -run TestGoldenStream
const goldenStreamPath = "testdata/golden_v1.sde"

// TestGoldenStream: the committed stream decodes frame for frame into the
// values it was written from, Detail payloads as their concrete types.
func TestGoldenStream(t *testing.T) {
	want := sampleFrames()
	if os.Getenv("SPECDAG_REGEN_GOLDEN") != "" {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if err := w.WriteFrame(&want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(goldenStreamPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenStreamPath)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with SPECDAG_REGEN_GOLDEN=1): %v", err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(*got, want[i]) {
			t.Fatalf("frame %d decoded as\n%+v\nwant\n%+v", i, *got, want[i])
		}
	}
	if got, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("after %d frames: %+v, %v, want io.EOF", len(want), got, err)
	}
}
