package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corrupt truncates or scribbles on a published file in place, simulating
// the states a crash mid-publish (or bit rot) leaves behind.
func truncateFile(t *testing.T, path string, keep int64) {
	t.Helper()
	if err := os.Truncate(path, keep); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSnapshotMatrix is the crash-recovery matrix: every row is a
// damaged snapshot directory and the recovery the serving layer must make
// from it. The invariant throughout: RecoverSnapshot returns the newest
// generation that still deserialises, flags when that is not the one
// CURRENT advertises, and fails with a clear ErrNoSnapshot only when
// nothing on disk can serve.
func TestRecoverSnapshotMatrix(t *testing.T) {
	ix := buildIndex(t)
	setup := func(t *testing.T, gens int) string {
		dir := t.TempDir()
		for i := 0; i < gens; i++ {
			if _, _, err := WriteSnapshot(dir, ix); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	t.Run("healthy directory serves CURRENT", func(t *testing.T) {
		dir := setup(t, 2)
		got, snap, recovered, err := RecoverSnapshot(dir)
		if err != nil || recovered {
			t.Fatalf("recover = gen %d, recovered=%v, err=%v", snap.Gen, recovered, err)
		}
		if snap.Gen != 2 || got.N() != ix.N() {
			t.Fatalf("served gen %d n=%d", snap.Gen, got.N())
		}
	})

	t.Run("CURRENT names a missing file", func(t *testing.T) {
		dir := setup(t, 2)
		if err := os.WriteFile(filepath.Join(dir, CurrentFile), []byte(SnapshotName(9)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, snap, recovered, err := RecoverSnapshot(dir)
		if err != nil || !recovered || snap.Gen != 2 {
			t.Fatalf("recover = gen %d, recovered=%v, err=%v; want fallback to gen 2", snap.Gen, recovered, err)
		}
	})

	t.Run("CURRENT names a truncated file", func(t *testing.T) {
		dir := setup(t, 2)
		truncateFile(t, filepath.Join(dir, SnapshotName(2)), 32) // header torn off mid-write
		_, snap, recovered, err := RecoverSnapshot(dir)
		if err != nil || !recovered || snap.Gen != 1 {
			t.Fatalf("recover = gen %d, recovered=%v, err=%v; want fallback to gen 1", snap.Gen, recovered, err)
		}
	})

	t.Run("torn CURRENT write", func(t *testing.T) {
		dir := setup(t, 3)
		// A torn pointer write: only a prefix of the snapshot name made it.
		if err := os.WriteFile(filepath.Join(dir, CurrentFile), []byte("index-000"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, snap, recovered, err := RecoverSnapshot(dir)
		if err != nil || !recovered || snap.Gen != 3 {
			t.Fatalf("recover = gen %d, recovered=%v, err=%v; want newest valid gen 3", snap.Gen, recovered, err)
		}
	})

	t.Run("newest two corrupt, third serves", func(t *testing.T) {
		dir := setup(t, 3)
		truncateFile(t, filepath.Join(dir, SnapshotName(3)), 100)
		truncateFile(t, filepath.Join(dir, SnapshotName(2)), 0)
		_, snap, recovered, err := RecoverSnapshot(dir)
		if err != nil || !recovered || snap.Gen != 1 {
			t.Fatalf("recover = gen %d, recovered=%v, err=%v; want gen 1", snap.Gen, recovered, err)
		}
	})

	t.Run("no CURRENT at all falls back to newest", func(t *testing.T) {
		dir := setup(t, 2)
		if err := os.Remove(filepath.Join(dir, CurrentFile)); err != nil {
			t.Fatal(err)
		}
		// CurrentSnapshot already handles this case; recovered stays false
		// because the served snapshot is the one the directory advertises.
		_, snap, recovered, err := RecoverSnapshot(dir)
		if err != nil || recovered || snap.Gen != 2 {
			t.Fatalf("recover = gen %d, recovered=%v, err=%v", snap.Gen, recovered, err)
		}
	})

	t.Run("every generation corrupt is a clear error", func(t *testing.T) {
		dir := setup(t, 2)
		truncateFile(t, filepath.Join(dir, SnapshotName(1)), 16)
		truncateFile(t, filepath.Join(dir, SnapshotName(2)), 16)
		_, _, _, err := RecoverSnapshot(dir)
		if !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("err = %v, want ErrNoSnapshot", err)
		}
	})

	t.Run("empty directory is a clear error", func(t *testing.T) {
		_, _, _, err := RecoverSnapshot(t.TempDir())
		if !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("err = %v, want ErrNoSnapshot", err)
		}
	})
}

// TestRecoverEmptyVersusCorrupt pins the one ladder's two failure
// readings for both directory kinds: an empty directory is the plain
// ErrNoSnapshot, while a directory whose every generation is corrupt
// also names the last load failure — so the two read differently in logs.
func TestRecoverEmptyVersusCorrupt(t *testing.T) {
	ix := buildIndex(t)
	sh, err := ix.Shard(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]struct {
		publish func(dir string) error
		recover func(dir string) error
	}{
		"CSRX": {
			func(dir string) error { _, _, err := WriteSnapshot(dir, ix); return err },
			func(dir string) error { _, _, _, err := RecoverSnapshot(dir); return err },
		},
		"CSRS": {
			func(dir string) error { _, _, err := WriteShardSnapshot(dir, sh); return err },
			func(dir string) error { _, _, _, err := RecoverShardSnapshot(dir); return err },
		},
	}
	for name, k := range kinds {
		empty := k.recover(t.TempDir())
		if !errors.Is(empty, ErrNoSnapshot) || strings.Contains(empty.Error(), "last failure") {
			t.Errorf("%s empty directory: err = %v, want the plain ErrNoSnapshot", name, empty)
		}

		dir := t.TempDir()
		for gen := uint64(1); gen <= 2; gen++ {
			if err := k.publish(dir); err != nil {
				t.Fatal(err)
			}
			truncateFile(t, filepath.Join(dir, SnapshotName(gen)), 16)
		}
		corrupt := k.recover(dir)
		if !errors.Is(corrupt, ErrNoSnapshot) || !strings.Contains(corrupt.Error(), "last failure") ||
			!strings.Contains(corrupt.Error(), ErrCorrupt.Error()) {
			t.Errorf("%s all generations corrupt: err = %v, want ErrNoSnapshot naming the corrupt load", name, corrupt)
		}
	}
}
