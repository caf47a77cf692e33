package engine

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// snapshotBytes is a Snapshotter that writes itself.
type snapshotBytes string

func (s snapshotBytes) WriteCheckpoint(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, string(s))
	return int64(n), err
}

// TestFailedCheckpointWriteKeepsThePreviousFile: the run loop closes a
// checkpoint destination whether or not the write succeeded, and an
// AtomicFile's Close is its commit — so a write that failed must turn that
// Close into a discard. The disk-full case is staged with a temp file that
// already holds half a checkpoint behind a read-only descriptor: every Write
// fails, while Sync, Close and Rename would all succeed.
func TestFailedCheckpointWriteKeepsThePreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.sdc")
	if err := os.WriteFile(path, []byte("the last good checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() (io.WriteCloser, error) {
		if err := os.WriteFile(path+".tmp", []byte("half a check"), 0o644); err != nil {
			return nil, err
		}
		f, err := os.Open(path + ".tmp")
		if err != nil {
			return nil, err
		}
		return &AtomicFile{f: f, path: path}, nil
	}
	if err := writeCheckpoint(snapshotBytes("half a checkpoint, and the rest"), open, 25); err == nil {
		t.Fatal("a checkpoint whose Write failed was reported written")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "the last good checkpoint" {
		t.Fatalf("after a failed write the file holds %q (%v), want the previous checkpoint", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}
}

// failsBeforeWriting is a Snapshotter that fails before it writes anything,
// as one that encodes its whole state up front can.
type failsBeforeWriting struct{}

var errEncode = errors.New("encoding the engine state failed")

func (failsBeforeWriting) WriteCheckpoint(io.Writer) (int64, error) { return 0, errEncode }

// TestCheckpointFailingBeforeItsFirstByteKeepsThePreviousFile: no Write
// failed, so only the checkpoint's own error can stop the run loop's close
// from committing an empty file over the last good checkpoint.
func TestCheckpointFailingBeforeItsFirstByteKeepsThePreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.sdc")
	if err := os.WriteFile(path, []byte("the last good checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() (io.WriteCloser, error) { return CreateAtomic(path) }
	if err := writeCheckpoint(failsBeforeWriting{}, open, 25); !errors.Is(err, errEncode) {
		t.Fatalf("writeCheckpoint returned %v, want the encode error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "the last good checkpoint" {
		t.Fatalf("after a failed checkpoint the file holds %q (%v), want the previous checkpoint", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}
}
