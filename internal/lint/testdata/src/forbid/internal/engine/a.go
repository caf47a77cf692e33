// Package engine is a fixture for the package that owns the module's one
// replace-by-rename, which syncs before it renames.
package engine

import "os"

func writeAtomic(f *os.File, path string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
