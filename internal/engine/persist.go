package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/kboost/kboost/internal/faults"
	"github.com/kboost/kboost/internal/graph"
)

// SnapshotExt is the file extension of persisted graph snapshots
// (binary codec).
const SnapshotExt = ".kbg"

// SnapshotPath returns the file a snapshot of id is persisted at.
func SnapshotPath(dir, id string) string {
	return filepath.Join(dir, id+SnapshotExt)
}

// snapshotTmpTag marks SaveSnapshot's in-flight temp files so
// LoadSnapshotDir can sweep ones orphaned by a crash.
const snapshotTmpTag = ".tmp-"

// SaveSnapshot persists g as dir/<id>.kbg in the binary codec, writing
// to a temp file and renaming so a crash mid-write never leaves a
// truncated snapshot where a reload would find it. The id must already
// be validated as path-safe (the HTTP layer enforces its name charset
// before calling this).
func SaveSnapshot(dir, id string, g *graph.Graph) error {
	if err := faults.CheckContext(context.Background(), faults.PersistWrite); err != nil {
		return fmt.Errorf("engine: persisting snapshot %q: %w", id, err)
	}
	tmp, err := os.CreateTemp(dir, "."+id+snapshotTmpTag+"*")
	if err != nil {
		return fmt.Errorf("engine: persisting snapshot %q: %w", id, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := g.WriteBinary(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("engine: persisting snapshot %q: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("engine: persisting snapshot %q: %w", id, err)
	}
	if err := os.Rename(tmp.Name(), SnapshotPath(dir, id)); err != nil {
		return fmt.Errorf("engine: persisting snapshot %q: %w", id, err)
	}
	return nil
}

// SnapshotCaseClash reports the id of a persisted snapshot whose name
// matches id case-insensitively but not exactly ("" when there is
// none). On case-insensitive filesystems (macOS, Windows) two such ids
// would share one snapshot file, so uploads must refuse the second
// spelling rather than silently clobber the first.
func SnapshotCaseClash(dir, id string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", fmt.Errorf("engine: checking snapshot dir: %w", err)
	}
	exact := id + SnapshotExt
	folded := strings.ToLower(exact)
	for _, entry := range entries {
		if name := entry.Name(); name != exact && strings.ToLower(name) == folded {
			return strings.TrimSuffix(name, SnapshotExt), nil
		}
	}
	return "", nil
}

// RemoveSnapshot deletes the persisted snapshot of id; a snapshot that
// was never persisted is not an error.
func RemoveSnapshot(dir, id string) error {
	if err := os.Remove(SnapshotPath(dir, id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("engine: removing snapshot %q: %w", id, err)
	}
	return nil
}

// LoadSnapshotDir registers every *.kbg snapshot found in dir,
// replacing any graph already registered under the same id (persisted
// uploads are the freshest state), and returns how many were loaded.
// Versions restart at the registry's next number — versions are
// per-process, not persisted.
func (e *Engine) LoadSnapshotDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("engine: loading snapshot dir: %w", err)
	}
	loaded := 0
	if err := faults.CheckContext(context.Background(), faults.SnapshotLoad); err != nil {
		return 0, fmt.Errorf("engine: loading snapshot dir: %w", err)
	}
	for _, entry := range entries {
		name := entry.Name()
		if !entry.IsDir() && strings.HasPrefix(name, ".") && strings.Contains(name, snapshotTmpTag) {
			// A SaveSnapshot temp file orphaned by a crash mid-write; it
			// will never be renamed into place, so sweep it at boot.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		id, ok := strings.CutSuffix(name, SnapshotExt)
		if !ok || id == "" || entry.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return loaded, fmt.Errorf("engine: loading snapshot %q: %w", id, err)
		}
		g, err := graph.ReadBinary(f)
		f.Close()
		if err != nil {
			return loaded, fmt.Errorf("engine: loading snapshot %q: %w", id, err)
		}
		if _, err := e.UploadGraph(id, g); err != nil {
			return loaded, err
		}
		loaded++
	}
	return loaded, nil
}
