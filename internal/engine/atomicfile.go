package engine

import (
	"io"
	"os"
)

// AtomicFile is a file destination that is never observed half-written: it
// writes to a temp sibling, and Close syncs it to stable storage and renames
// it over the target, so an interrupted write (crash, OOM kill, full disk)
// leaves the previous good file — or nothing — in place. It is the
// destination to hand WithCheckpoints' open callback when checkpoints go to
// disk: those are exactly the interruptions checkpoints exist to survive.
type AtomicFile struct {
	f    *os.File
	path string
}

// CreateAtomic starts an atomic write of path.
func CreateAtomic(path string) (*AtomicFile, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{f: f, path: path}, nil
}

func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Close commits the write. On any error the temp file is removed and the
// target is untouched.
func (a *AtomicFile) Close() error {
	err := a.f.Sync()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(a.f.Name(), a.path)
	}
	if err != nil {
		os.Remove(a.f.Name())
	}
	return err
}

// WriteAtomic writes path through an AtomicFile: fill produces the content,
// and a fill error discards the temp file without touching the target.
func WriteAtomic(path string, fill func(io.Writer) error) error {
	a, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	if err := fill(a); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return err
	}
	return a.Close()
}
