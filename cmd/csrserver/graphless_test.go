package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/ingest"
)

// pr22BodySet is the sha256 of the 300-body request set drawn from seed 22
// over the WT stand-in at -r 16 -c 0.6 (results_pr22_csrload.txt's
// generator), as every mode has served it since the keyed sketch
// (e8c16db0…5f3cff945ca8 from the one-factor index until then).
const pr22BodySet = "eb33c4377a2572ded04b218584e0ada432f350a8024f29e376a970cd051fc17d"

// TestSnapshotBootNeedsNoGraphFlag: a snapshot carries its graph, so a
// boot that serves one names none. On WT, the cold boot, a boot over its
// directory with no graph flag, a -waldir boot with none, and a router over
// three workers cut from the file all serve the seed-22 body set; and the
// flags still refuse what names a graph badly or leaves a boot nothing to
// serve.
func TestSnapshotBootNeedsNoGraphFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("precomputes the WT stand-in")
	}
	const n = 131072
	snaps := t.TempDir()
	cold := bootFlags(t, "-dataset", "WT", "-r", "16", "-c", "0.6", "-snapshots", snaps)
	if got := seededBodySetDigest(t, cold, n, 22); got != pr22BodySet {
		t.Fatalf("cold boot's body set hashes %s, want %s", got, pr22BodySet)
	}
	warm := bootFlags(t, "-snapshots", snaps)
	if st := warm.man.Current(); st.Source != "snapshot" || st.N != n {
		t.Fatalf("boot with no graph flag: %+v", st)
	}
	ingestBoot := bootFlags(t, "-snapshots", snaps, "-waldir", t.TempDir())
	defer ingestBoot.ing.Close()
	if err := ingestBoot.ing.Recover(); err != nil {
		t.Fatal(err)
	}
	if st := ingestBoot.ing.Stats(); st.LiveEdges != 251070 {
		t.Fatalf("-waldir boot with no graph flag holds %d live edges, want WT's 251070", st.LiveEdges)
	}
	path, _, err := core.CurrentSnapshot(snaps)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	router := bootFlags(t, "-shardaddrs", wireWorkers(t, publishShards(t, ix, 3), 3, nil))
	for name, s := range map[string]*server{"snapshot": warm, "-waldir": ingestBoot, "router": router} {
		if got := seededBodySetDigest(t, s, n, 22); got != pr22BodySet {
			t.Errorf("%s boot's body set hashes %s, want %s", name, got, pr22BodySet)
		}
	}

	// A graph flag that names another n is still refused.
	if _, err := boot(context.Background(), mustParse(t, "-dataset", "YT", "-snapshots", snaps)); err == nil || !strings.Contains(err.Error(), "index built for 131072 nodes, graph has 65536") {
		t.Fatalf("-dataset YT over a WT snapshot: err = %v", err)
	}
}

func mustParse(t *testing.T, args ...string) *config {
	t.Helper()
	cfg, err := parse(args...)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestGraphFlagsAreForColdBuilds holds the flags to the rule that only a
// cold build reads a graph: -snapshots alone parses, a half-named graph is
// refused, and a boot over a directory with nothing to serve says so.
func TestGraphFlagsAreForColdBuilds(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{{"-snapshots", dir}, {"-snapshots", dir, "-waldir", t.TempDir(), "-r", "4"}} {
		if _, err := parse(args...); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
	for want, args := range map[string][]string{
		"-n requires -graph":                  {"-snapshots", dir, "-n", "6"},
		"-dscale requires -dataset":           {"-snapshots", dir, "-dscale", "2"},
		"one of -dataset or -graph":           {},
		"-graph requires -n":                  {"-snapshots", dir, "-graph", graphFile(t)},
		"use either -dataset or -graph":       {"-snapshots", dir, "-dataset", "FB", "-graph", graphFile(t), "-n", "6"},
		"one of -dataset or -graph is requir": {"-waldir", t.TempDir()},
	} {
		if _, err := parse(args...); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want %q", args, err, want)
		}
	}
	if _, err := boot(context.Background(), mustParse(t, "-snapshots", dir)); err == nil || !strings.Contains(err.Error(), "no generation in -snapshots") {
		t.Fatalf("boot over an empty directory with no graph: err = %v", err)
	}
}

// TestIngestRestartReplaysOnlyTheTail: an ingest server's publishes carry
// the live graph and prune the WAL segments every kept generation holds,
// and a restart — with no graph flag — starts its live graph from the
// newest generation and replays only the records past it.
func TestIngestRestartReplaysOnlyTheTail(t *testing.T) {
	snaps, walDir := t.TempDir(), t.TempDir()
	// A log from before the first snapshot, in small segments: seqs 1-2 and
	// 3-4, the second still open for appends.
	fresh := []ingest.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 4, Dst: 0}, {Src: 5, Dst: 0},
		{Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 4, Dst: 2}, {Src: 5, Dst: 2}, {Src: 1, Dst: 3}}
	wal, err := ingest.Open(walDir, ingest.WALOptions{SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fresh[:4] {
		if _, err := wal.Append([]ingest.Record{{Src: uint32(e.Src), Dst: uint32(e.Dst), Weight: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	s := bootArgs(t, "-snapshots", snaps, "-waldir", walDir)
	if err := s.ing.Recover(); err != nil {
		t.Fatal(err)
	}
	if r := s.ing.Stats().Replayed; r != 4 {
		t.Fatalf("cold boot replayed %d records onto the flags' graph, want the whole log's 4", r)
	}
	for _, e := range fresh[4:7] {
		if _, _, err := s.ing.Append([]ingest.Edge{e}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.reload(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Generations 2-4 at seqs 5-7 are kept: every one holds seqs 1-2.
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || filepath.Base(segs[0]) != "wal-0000000000000003.seg" {
		t.Fatalf("after three publishes the WAL holds %v, want the open segment from seq 3 alone", segs)
	}
	if _, _, err := s.ing.Append(fresh[7:]); err != nil {
		t.Fatal(err)
	}
	if err := s.ing.Close(); err != nil {
		t.Fatal(err)
	}

	restart := bootFlags(t, "-snapshots", snaps, "-waldir", walDir)
	defer restart.ing.Close()
	if err := restart.ing.Recover(); err != nil {
		t.Fatal(err)
	}
	st := restart.ing.Stats()
	if st.Replayed != 2 || st.LastSeq != 9 || st.LiveEdges != 11+9 {
		t.Fatalf("restart replayed %d records to seq %d with %d live edges; want 2 past seq 7, to 9, with 20", st.Replayed, st.LastSeq, st.LiveEdges)
	}
	if src := restart.man.Current(); src.Source != "snapshot" || src.SnapshotGen != 4 {
		t.Fatalf("restart serves %+v, want snapshot generation 4", src)
	}
	if _, err := os.Stat(filepath.Join(snaps, core.SnapshotName(1))); !os.IsNotExist(err) {
		t.Fatalf("generation 1 outlived three publishes: %v", err)
	}
}
