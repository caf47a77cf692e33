package engine_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/specdag/specdag/internal/engine"
)

// TestWriteAtomic: a write that fails midway leaves the previous file intact
// and no temp file behind; a successful one replaces it whole.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.json")
	write := func(content string, fail error) error {
		return engine.WriteAtomic(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, content); err != nil {
				return err
			}
			return fail
		})
	}
	if err := write("first", nil); err != nil {
		t.Fatal(err)
	}
	torn := errors.New("disk full")
	if err := write("sec", torn); !errors.Is(err, torn) {
		t.Fatalf("failed fill returned %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first" {
		t.Fatalf("after a failed write the file holds %q (%v), want the previous content", got, err)
	}
	if err := write("second", nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("after a successful write the file holds %q", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}
