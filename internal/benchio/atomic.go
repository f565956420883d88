// Package benchio writes artifacts crash-safely: traces, metrics dumps,
// profiles and result files reach their destination whole or not at all.
package benchio

import (
	"fmt"
	"os"
	"path/filepath"
)

// AtomicFile writes an artifact via the write-temp-then-rename discipline:
// bytes stream into a hidden temporary in the destination's directory, and
// the destination path only ever changes in one atomic rename at Commit.
// An interrupt (or a Discard after a failed producer) therefore never
// leaves a torn trace, metrics, profile, or result file — the destination
// either keeps its previous content or receives the complete new one.
//
// The zero value is not usable; start from NewAtomicFile. Exactly one of
// Commit or Discard should be called; both are idempotent afterwards.
type AtomicFile struct {
	f    *os.File
	path string
	done bool
}

// NewAtomicFile opens a temporary file next to path (same filesystem, so
// the final rename is atomic). The temporary is named after the target so
// a crash leaves an identifiable ".tmp" orphan rather than a torn target.
func NewAtomicFile(path string) (*AtomicFile, error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("benchio: %w", err)
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write streams bytes into the temporary.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Name returns the destination path the Commit rename will install.
func (a *AtomicFile) Name() string { return a.path }

// Commit syncs and closes the temporary, then renames it over the
// destination. After a successful Commit the destination holds the complete
// content; on any error the temporary is removed and the destination is
// left untouched.
func (a *AtomicFile) Commit() error {
	if a.done {
		return nil
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return fmt.Errorf("benchio: syncing %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return fmt.Errorf("benchio: closing %s: %w", a.path, err)
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		os.Remove(a.f.Name())
		return fmt.Errorf("benchio: installing %s: %w", a.path, err)
	}
	// Make the new directory entry durable too; a failed directory sync is
	// not worth failing the artifact over, so the error is dropped.
	if dir, err := os.Open(filepath.Dir(a.path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// Discard closes and removes the temporary, leaving the destination as it
// was. Safe to defer alongside a Commit on the success path.
func (a *AtomicFile) Discard() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}

// WriteFileAtomic writes data to path with the temp-then-rename discipline.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	a, err := NewAtomicFile(path)
	if err != nil {
		return err
	}
	if _, err := a.Write(data); err != nil {
		a.Discard()
		return fmt.Errorf("benchio: writing %s: %w", path, err)
	}
	if err := a.f.Chmod(perm); err != nil {
		a.Discard()
		return fmt.Errorf("benchio: chmod %s: %w", path, err)
	}
	return a.Commit()
}
