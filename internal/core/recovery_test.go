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
// generation that still deserialises, flags — and says why — when a newer
// one did not, and fails with a clear ErrNoSnapshot only when nothing on
// disk can serve.
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
	// fellBack asserts recovery served generation want, recovered, naming
	// the generation it skipped.
	fellBack := func(t *testing.T, dir string, want, skipped uint64) {
		t.Helper()
		got, snap, recovered, err := RecoverSnapshot(dir)
		if err != nil || !recovered || snap.Gen != want {
			t.Fatalf("recover = gen %d, recovered=%v, err=%v; want fallback to gen %d", snap.Gen, recovered, err, want)
		}
		defer got.Close()
		if snap.Skipped == nil || !strings.Contains(snap.Skipped.Error(), SnapshotName(skipped)) {
			t.Fatalf("skipped = %v, want the reason generation %d did not load", snap.Skipped, skipped)
		}
	}

	// The current generation is the newest one on disk; no pointer file
	// names it.
	t.Run("healthy directory serves CURRENT", func(t *testing.T) {
		dir := setup(t, 2)
		got, snap, recovered, err := RecoverSnapshot(dir)
		if err != nil || recovered || snap.Skipped != nil {
			t.Fatalf("recover = gen %d, recovered=%v, skipped=%v, err=%v", snap.Gen, recovered, snap.Skipped, err)
		}
		defer got.Close()
		if snap.Gen != 2 || got.N() != ix.N() {
			t.Fatalf("served gen %d n=%d", snap.Gen, got.N())
		}
	})

	t.Run("no CURRENT at all falls back to newest", func(t *testing.T) {
		dir := setup(t, 3)
		// Publishing writes no pointer file, so every directory is this row.
		if _, err := os.Stat(filepath.Join(dir, "CURRENT")); !os.IsNotExist(err) {
			t.Fatalf("publish left a CURRENT file (stat err = %v)", err)
		}
		got, snap, recovered, err := RecoverSnapshot(dir)
		if err != nil || recovered || snap.Gen != 3 {
			t.Fatalf("recover = gen %d, recovered=%v, err=%v; want gen 3", snap.Gen, recovered, err)
		}
		got.Close()
	})

	t.Run("newest generation truncated", func(t *testing.T) {
		dir := setup(t, 2)
		truncateFile(t, filepath.Join(dir, SnapshotName(2)), 32) // header torn off
		fellBack(t, dir, 1, 2)
	})

	t.Run("newest generation corrupt", func(t *testing.T) {
		dir := setup(t, 3)
		path := filepath.Join(dir, SnapshotName(3))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-pageSize-3] ^= 0x40 // a flipped factor byte: only the CRC sees it
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fellBack(t, dir, 2, 3)
	})

	t.Run("a leftover CURRENT file is ignored", func(t *testing.T) {
		dir := setup(t, 3)
		// What an older binary's pointer — whole or torn — leaves behind.
		for _, ptr := range []string{SnapshotName(1) + "\n", "index-000"} {
			if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte(ptr), 0o644); err != nil {
				t.Fatal(err)
			}
			got, snap, recovered, err := RecoverSnapshot(dir)
			if err != nil || recovered || snap.Gen != 3 {
				t.Fatalf("CURRENT %q: recover = gen %d, recovered=%v, err=%v; want gen 3", ptr, snap.Gen, recovered, err)
			}
			got.Close()
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
