// Package fsio holds the shared durable-write primitive used by every
// on-disk store in the daemons (result cache, cell cache).
package fsio

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileSync atomically and durably replaces path with data: the bytes
// are written to a uniquely named temporary file in the same directory,
// fsynced, and renamed over path. The fsync before the rename is the
// durability half of the contract — without it a job record written
// after the rename could survive a power loss whose data bytes never hit
// the platter, leaving a key that claims bytes nobody holds. The unique
// temporary name is the concurrency half: two goroutines storing under
// the same key never scribble over each other's half-written file, and
// whichever rename lands last wins with complete bytes either way.
//
// The containing directory is deliberately not fsynced: every store built
// on this helper treats a missing entry as a cache miss or a re-dispatch,
// so losing the rename itself costs a recompute, never correctness.
func WriteFileSync(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("fsio: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("fsio: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("fsio: syncing %s: %w", path, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		cleanup()
		return fmt.Errorf("fsio: setting mode on %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fsio: closing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fsio: committing %s: %w", path, err)
	}
	return nil
}
