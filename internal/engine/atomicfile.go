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
	err  error // the first failed Write, or what CloseWithError was given
}

// CreateAtomic starts an atomic write of path.
func CreateAtomic(path string) (*AtomicFile, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{f: f, path: path}, nil
}

func (a *AtomicFile) Write(p []byte) (int, error) {
	n, err := a.f.Write(p)
	if err != nil && a.err == nil {
		a.err = err
	}
	return n, err
}

// Close commits the write — unless a Write failed: whoever closes a
// destination after a short write (Run does, on its error path) must not
// thereby install it. On any error, that one included, the temp file is
// removed, the target is untouched and the error is returned.
func (a *AtomicFile) Close() error {
	err := a.err
	if err == nil {
		err = a.f.Sync()
	}
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

// CloseWithError abandons the write, as io.PipeWriter's does, for a producer
// that failed even before its first byte: the temp file is removed, the
// target is untouched, and the first error is returned. A nil err is Close.
func (a *AtomicFile) CloseWithError(err error) error {
	if a.err == nil {
		a.err = err
	}
	return a.Close()
}

// WriteAtomic writes path through an AtomicFile: fill produces the content,
// and a fill error discards the temp file without touching the target.
func WriteAtomic(path string, fill func(io.Writer) error) error {
	a, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	return a.CloseWithError(fill(a))
}
