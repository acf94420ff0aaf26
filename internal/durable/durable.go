// Package durable is the repository's one crash-safe write primitive:
// temp file in the target's directory, write, fsync, close, rename,
// then fsync the directory so the rename itself survives power loss.
// Without the directory sync the new name can live only in the page
// cache, and a crash could resurface the old file (or nothing) at the
// path even though the rename "succeeded". A writer killed at any
// instant leaves either the previous file or the new one at the path,
// never a torn mix — at worst a TempPrefix file, which the owners of
// swept directories (the generation log, checkpoint directories)
// remove on open.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// TempPrefix starts the name of every in-flight WriteFile temp file.
const TempPrefix = ".tmp-"

// WriteFile atomically replaces path with the bytes write produces,
// issuing exactly one file fsync and one directory fsync per commit.
// write receives the unbuffered temp file; callers that emit many
// small writes wrap it in a bufio.Writer and flush before returning.
// On any failure the temp file is removed and path is left untouched.
// The committed file is mode 0644.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, TempPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()      //nolint:errcheck — already failing
			os.Remove(tmp) //nolint:errcheck — best-effort cleanup
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Chmod(tmp, 0o644); err != nil { // CreateTemp makes 0600
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so renames, creations and unlinks inside
// it are durable.
func SyncDir(dir string) error { return syncDir(dir) }

// syncDir is a variable so tests can observe every directory sync.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("syncing %s: %w", dir, serr)
	}
	return cerr
}
