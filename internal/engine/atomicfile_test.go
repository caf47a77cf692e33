package engine

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// failingWriter writes its first n bytes of content, then fails with err —
// at n = 0 before its first byte, as a producer that encodes its whole state
// up front can.
type failingWriter struct {
	content string
	n       int
	err     error
}

func (f failingWriter) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, f.content[:f.n])
	if err != nil {
		return int64(n), err
	}
	return int64(n), f.err
}

// TestWriteAtomic: a successful write replaces the file whole; a write that
// fails in any way — the producer midway or before its first byte, or the
// destination itself — leaves the previous file intact, returns the error and
// leaves no temp file behind.
func TestWriteAtomic(t *testing.T) {
	const previous = "the last good checkpoint"
	errEncode := errors.New("encoding the engine state failed")
	for _, tc := range []struct {
		name  string
		write func(path string) error
		want  error // what the error wraps; nil: any error
	}{
		{"writer fails midway", func(path string) error {
			return WriteAtomic(path, failingWriter{"half a checkpoint, and the rest", 17, errEncode})
		}, errEncode},
		{"writer fails before its first byte", func(path string) error {
			return WriteAtomic(path, failingWriter{"a checkpoint", 0, errEncode})
		}, errEncode},
		// A full disk: the temp file already holds half a checkpoint behind a
		// read-only descriptor, so every Write fails while Sync, Close and
		// Rename would all succeed.
		{"destination write fails", func(path string) error {
			if err := os.WriteFile(path+".tmp", []byte("half a check"), 0o644); err != nil {
				return err
			}
			f, err := os.Open(path + ".tmp")
			if err != nil {
				return err
			}
			return replace(f, path, strings.NewReader("half a checkpoint, and the rest"))
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.sdc")
			if err := WriteAtomic(path, strings.NewReader(previous)); err != nil {
				t.Fatal(err)
			}
			err := tc.write(path)
			if err == nil {
				t.Fatal("a failed write was reported written")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("failed write returned %v, want %v", err, tc.want)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != previous {
				t.Fatalf("after a failed write the file holds %q (%v), want the previous content", got, err)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("temp file left behind: %v", entries)
			}
			if err := WriteAtomic(path, strings.NewReader("the next one")); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != "the next one" {
				t.Fatalf("after a successful write the file holds %q", got)
			}
		})
	}
}
