package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/wire"
)

// staleDir is a snapshot directory whose one generation is the committed
// two-factor v3 fixture file: what a directory an older binary published
// into looks like to this one.
func staleDir(t *testing.T, dir, fixture string) string {
	t.Helper()
	return bareSnapshot(t, dir, filepath.Join("..", "..", "internal", "core", "testdata", fixture), 1)
}

// TestStaleGenerationIsNeverServed: a generation in the two-factor format,
// or in v4, which carries no graph, is stale, not corrupt, and never
// reaches a boot. A directory holding only that reads as empty, so a
// server with a graph rebuilds and publishes the next generation over it
// as v5 — and serves that — while a shard worker, which cannot build,
// refuses to boot and names the publish that cuts a v5 shard directory.
func TestStaleGenerationIsNeverServed(t *testing.T) {
	for _, v := range []string{"v3", "v4"} {
		t.Run(v, func(t *testing.T) { staleGenerationIsNeverServed(t, v) })
	}
}

func staleGenerationIsNeverServed(t *testing.T, v string) {
	dir := staleDir(t, t.TempDir(), "index."+v+"-f64.csrx")
	if _, _, err := core.CurrentSnapshot(dir); !errors.Is(err, core.ErrNoSnapshot) || !errors.Is(err, core.ErrFormat) {
		t.Fatalf("CurrentSnapshot over a stale generation: err = %v, want ErrNoSnapshot and ErrFormat", err)
	}

	st := bootArgs(t, "-snapshots", dir).man.Current()
	if st.Source != "rebuild" || st.SnapshotGen != 2 {
		t.Fatalf("boot over a stale directory: source %q, snapshot generation %d; want a rebuild published as generation 2", st.Source, st.SnapshotGen)
	}
	path, gen, err := core.CurrentSnapshot(dir)
	if err != nil || gen != 2 {
		t.Fatalf("after the boot: the newest generation is %d (%v), want 2", gen, err)
	}
	ix, err := core.LoadIndex(path)
	if err != nil {
		t.Fatalf("the generation published over the stale one: %v", err)
	}
	ix.Close()
	if st := bootArgs(t, "-snapshots", dir).man.Current(); st.Source != "snapshot" || st.SnapshotGen != 2 {
		t.Fatalf("second boot: source %q, generation %d; want snapshot generation 2", st.Source, st.SnapshotGen)
	}

	shardDir := staleDir(t, core.ShardDir(t.TempDir(), 0), "shard."+v+"-f64.csrs")
	_, err = wire.BootWorker(wire.WorkerConfig{Shard: 0, SnapshotDir: shardDir})
	if !errors.Is(err, core.ErrNoSnapshot) || !strings.Contains(err.Error(), "-convert ROOT -split K") || !strings.Contains(err.Error(), v) {
		t.Fatalf("worker boot over a stale shard directory: err = %v, want ErrNoSnapshot naming the %s format and csrstat -split", err, v)
	}
}
