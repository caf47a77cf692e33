package wire

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"
)

// The committed SDE2 fixture is sampleFrames() — one frame of each kind,
// with a sync and an async Detail payload — written by NewWriter and
// WriteFrame. Spill files and served streams are this format, so a build
// that can no longer read it can no longer replay a lapped ring. A stream's
// bytes are a function of its frames, so the test compares bytes, then
// values. Regenerate only with a deliberate, versioned format change:
//
//	SPECDAG_REGEN_GOLDEN=1 go test ./internal/wire/ -run TestGoldenStream
const goldenStreamPath = "testdata/golden_v2.sde"

// TestGoldenStream: writing sampleFrames() gives the committed bytes, and
// they decode frame for frame into the values they were written from, Detail
// payloads as their concrete types.
func TestGoldenStream(t *testing.T) {
	want := sampleFrames()
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
	if os.Getenv("SPECDAG_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(goldenStreamPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(goldenStreamPath)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with SPECDAG_REGEN_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(blob, buf.Bytes()) {
		t.Fatalf("writing sampleFrames() gives %d bytes that are not the %d of %s", buf.Len(), len(blob), goldenStreamPath)
	}
	r, err := NewReader(bytes.NewReader(blob))
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
