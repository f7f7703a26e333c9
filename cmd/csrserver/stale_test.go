package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/wire"
)

// staleDir is a snapshot directory whose one generation, CURRENT's, is the
// committed two-factor v3 fixture file: what a directory an older binary
// published into looks like to this one.
func staleDir(t *testing.T, dir, fixture string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "core", "testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, core.SnapshotName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := core.SetCurrent(dir, 1); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStaleGenerationIsNeverServed: a generation in the two-factor format
// is stale, not corrupt, and never reaches a boot. A directory holding only
// that reads as empty, so a server with a graph rebuilds and publishes the
// next generation over it as v4 — and serves that — while a shard worker,
// which cannot build, refuses to boot and names the converter.
func TestStaleGenerationIsNeverServed(t *testing.T) {
	dir := staleDir(t, t.TempDir(), "index.v3-f64.csrx")
	if _, _, err := core.CurrentSnapshot(dir); !errors.Is(err, core.ErrNoSnapshot) || !errors.Is(err, core.ErrFormat) {
		t.Fatalf("CurrentSnapshot over a stale generation: err = %v, want ErrNoSnapshot and ErrFormat", err)
	}
	if snaps, err := core.ListSnapshots(dir); err != nil || len(snaps) != 0 {
		t.Fatalf("ListSnapshots over a stale generation: %v, %v; want none", snaps, err)
	}

	st := bootArgs(t, "-snapshots", dir).man.Current()
	if st.Source != "rebuild" || st.SnapshotGen != 2 {
		t.Fatalf("boot over a stale directory: source %q, snapshot generation %d; want a rebuild published as generation 2", st.Source, st.SnapshotGen)
	}
	path, gen, err := core.CurrentSnapshot(dir)
	if err != nil || gen != 2 {
		t.Fatalf("after the boot: CURRENT resolves to generation %d (%v), want 2", gen, err)
	}
	ix, err := core.LoadIndex(path)
	if err != nil {
		t.Fatalf("the generation published over the stale one: %v", err)
	}
	ix.Close()
	if st := bootArgs(t, "-snapshots", dir).man.Current(); st.Source != "snapshot" || st.SnapshotGen != 2 {
		t.Fatalf("second boot: source %q, generation %d; want snapshot generation 2", st.Source, st.SnapshotGen)
	}

	shardDir := staleDir(t, core.ShardDir(t.TempDir(), 0), "shard.v3-f64.csrs")
	_, err = wire.BootWorker(wire.WorkerConfig{Shard: 0, SnapshotDir: shardDir})
	if !errors.Is(err, core.ErrNoSnapshot) || !strings.Contains(err.Error(), "csrstat -convert") || !strings.Contains(err.Error(), "v3") {
		t.Fatalf("worker boot over a stale shard directory: err = %v, want ErrNoSnapshot naming the v3 format and csrstat -convert", err)
	}
}
