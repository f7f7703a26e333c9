package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// plantTemp drops a fake crash-orphaned temp file in dir, aged so it
// falls on the requested side of the staleTempAge cutoff.
func plantTemp(t *testing.T, dir, name string, stale bool) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	if stale {
		old := time.Now().Add(-2 * staleTempAge)
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func mustExist(t *testing.T, p string) {
	t.Helper()
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("%s should have survived the sweep: %v", filepath.Base(p), err)
	}
}

func mustBeGone(t *testing.T, p string) {
	t.Helper()
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("%s should have been swept, stat err = %v", filepath.Base(p), err)
	}
}

// TestPruneSnapshotsSweepsStaleTemps pins satellite 3 of issue 8: temps
// stranded by a crash between CreateTemp and the deferred remove are
// cleaned up by housekeeping, while in-flight temps, snapshots and foreign
// files are untouched.
func TestPruneSnapshotsSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	ix := buildIndex(t)
	if _, _, err := WriteSnapshot(dir, ix); err != nil {
		t.Fatal(err)
	}

	staleSave := plantTemp(t, dir, tempSavePrefix+"dead1", true)
	freshSave := plantTemp(t, dir, tempSavePrefix+"inflight", false)
	// Foreign files older than the cutoff must not be collateral: a
	// dotfile, and the pointer temp an older binary's crash may have left.
	foreign := plantTemp(t, dir, ".keep", true)
	oldPointer := plantTemp(t, dir, ".current-dead2", true)

	removed, err := PruneSnapshots(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("removed = %d snapshots, want 0 (temps are not counted)", removed)
	}
	mustBeGone(t, staleSave)
	mustExist(t, freshSave)
	mustExist(t, foreign)
	mustExist(t, oldPointer)
	if _, _, err := CurrentSnapshot(dir); err != nil {
		t.Fatalf("snapshot no longer resolvable after sweep: %v", err)
	}
}

// TestRecoverSnapshotSweepsStaleTemps pins that the crash-recovery entry
// point — the code that runs right after the kind of crash that strands
// temps — cleans them up while still serving the directory.
func TestRecoverSnapshotSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	ix := buildIndex(t)
	if _, _, err := WriteSnapshot(dir, ix); err != nil {
		t.Fatal(err)
	}
	stale := plantTemp(t, dir, tempSavePrefix+"dead", true)
	fresh := plantTemp(t, dir, tempSavePrefix+"inflight", false)

	got, _, recovered, err := RecoverSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if recovered {
		t.Fatal("healthy directory reported as recovered")
	}
	mustBeGone(t, stale)
	mustExist(t, fresh)

	// An empty (just-created) directory must not make recovery's sweep
	// blow up, and the error must still be ErrNoSnapshot.
	if _, _, _, err := RecoverSnapshot(t.TempDir()); err == nil {
		t.Fatal("recovery of empty dir succeeded")
	}
}

// TestRecoverShardSnapshotSweepsStaleTemps is the shard-directory twin.
func TestRecoverShardSnapshotSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	ix := buildIndex(t)
	sh, err := ix.Shard(0, ix.N())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteShardSnapshot(dir, sh); err != nil {
		t.Fatal(err)
	}
	stale := plantTemp(t, dir, tempSavePrefix+"dead", true)

	_, _, recovered, err := RecoverShardSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered {
		t.Fatal("healthy shard directory reported as recovered")
	}
	mustBeGone(t, stale)
}
