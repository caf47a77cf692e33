package engine

import (
	"io"
	"os"
)

// WriteAtomic replaces path with data's bytes so that path is never observed
// half-written: data goes to a temp sibling, which is synced to stable
// storage and renamed over path. On any error — data's own, a failed write
// (a full disk), sync or rename — the temp file is removed and path keeps
// its previous content, or stays absent. It is how checkpoints go to disk:
// crashes and full disks are exactly what they exist to survive.
func WriteAtomic(path string, data io.WriterTo) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	return replace(f, path, data)
}

// replace fills the open temp file f from data and renames it over path, or
// removes it on the first error.
func replace(f *os.File, path string, data io.WriterTo) error {
	_, err := data.WriteTo(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
