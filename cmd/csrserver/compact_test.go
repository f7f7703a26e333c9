package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"csrplus/internal/core"
)

// TestCompactedFileAnswersLikeDenseV2 is the file half of the compacted
// format: one index, as a file that stores every row (twelve of the 48 all
// zero) and as one that leaves those rows out, answers /topk and
// /similarity with byte-identical
// bodies — at K = 1 and through a router over three wire workers booted from
// the compacted per-shard files — for sources, targets and excluded nodes
// among the rows left out, and for k up to, at and past the rows stored.
// (internal/shard holds the routers over K = 2, 3 and 7 slots, and over
// slots that store nothing, to the same answers.) Each K = 1 server boots
// from one of the committed pair of fixtures, copied bare into its snapshot
// directory.
func TestCompactedFileAnswersLikeDenseV2(t *testing.T) {
	const n, stored = 48, 36
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	full, compactFile := filepath.Join(testdata, "index.v5-sparse.csrx"), filepath.Join(testdata, "index.v5-compact.csrx")
	dense, err := core.LoadIndex(full)
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	compact, err := core.LoadIndex(compactFile)
	if err != nil {
		t.Fatal(err)
	}
	defer compact.Close()
	if dense.Stored() != n || compact.Stored() != stored {
		t.Fatalf("fixtures store %d and %d rows: want %d and %d", dense.Stored(), compact.Stored(), n, stored)
	}
	compactDir := bareSnapshot(t, t.TempDir(), compactFile, 1)

	// The flags must name a graph of the index's size; no boot below reads it.
	base := []string{"-graph", graphFile(t), "-n", fmt.Sprint(n)}
	fullDir := bareSnapshot(t, t.TempDir(), full, 1)
	type mode struct {
		name string
		s    *server
	}
	modes := []mode{
		{"every-row file", bootFlags(t, append(base, "-snapshots", fullDir)...)},
		{"compacted file", bootFlags(t, append(base, "-snapshots", compactDir)...)},
		{"compacted shard files over the wire", bootFlags(t, "-shardaddrs", wireWorkers(t, publishShards(t, compact, 3), 3, nil))},
	}
	for _, m := range modes[:2] {
		if st := m.s.man.Current(); st.Source != "snapshot" || st.Recovered || st.SnapshotGen != 1 {
			t.Fatalf("%s: boot from a bare file: source %q, recovered %t, snapshot generation %d; want snapshot generation 1, not recovered", m.name, st.Source, st.Recovered, st.SnapshotGen)
		}
	}

	var paths []string
	// 3, 7, 11 and 47 are left out; 0, 8, 16 and 46 are stored.
	for _, nodes := range []string{"0", "3", "47", "8,16", "3,8,47,8", "3,7,11", "46,0,3"} {
		for _, k := range []int{1, 5, stored - 1, stored, stored + 1, n} {
			paths = append(paths, fmt.Sprintf("/topk?nodes=%s&k=%d", nodes, k))
		}
		paths = append(paths, "/similarity?nodes="+nodes+"&targets=0,3,7,8,16,46,47")
	}
	for _, path := range paths {
		var want []byte
		for _, m := range modes {
			rec := httptest.NewRecorder()
			m.s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s, %s: HTTP %d %s", path, m.name, rec.Code, rec.Body)
			}
			if want == nil {
				want = rec.Body.Bytes()
			} else if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: %s answers\n%.400s\nbut %s answered\n%.400s", path, m.name, rec.Body, modes[0].name, want)
			}
		}
	}

	// What a generation stores, and which build it is, is on /stats: the
	// whole index's and each slot's.
	for _, m := range modes[:2] {
		srv := httptest.NewServer(m.s.mux())
		_, stats := get(t, srv, "/stats")
		srv.Close()
		wantStored, wantBytes := dense.Stored(), dense.IndexShard.Bytes()
		if m.s == modes[1].s {
			wantStored, wantBytes = compact.Stored(), compact.IndexShard.Bytes()
		}
		slot := stats["shards"].([]interface{})[0].(map[string]interface{})
		// One build, whichever rows a file stores.
		if build := fmt.Sprintf("%016x", dense.Build()); stats["build"] != build || slot["build"] != build || compact.Build() != dense.Build() {
			t.Fatalf("%s: /stats build %v (slot %v), want %s", m.name, stats["build"], slot["build"], build)
		}
		if stats["rows_stored"] != float64(wantStored) || stats["n"] != float64(n) || stats["index_bytes"] != float64(wantBytes) ||
			slot["rows_stored"] != float64(wantStored) || slot["bytes"] != float64(wantBytes) {
			t.Fatalf("%s: /stats reports rows_stored=%v n=%v index_bytes=%v (slot: %v), want %d, %d, %d", m.name,
				stats["rows_stored"], stats["n"], stats["index_bytes"], slot, wantStored, n, wantBytes)
		}
	}

	// The compacted index published into the every-row server's directory
	// is its next generation: a reload serves it, and answers as before.
	if gen, _, err := core.WriteSnapshot(fullDir, compact); err != nil || gen != 2 {
		t.Fatalf("publishing the compacted index: generation %d, %v; want 2", gen, err)
	}
	st, err := modes[0].s.reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != "snapshot" || st.Recovered || st.SnapshotGen != 2 || st.Path != filepath.Join(fullDir, core.SnapshotName(2)) {
		t.Fatalf("reload over a second bare file: source %q, recovered %t, snapshot generation %d at %s; want snapshot generation 2", st.Source, st.Recovered, st.SnapshotGen, st.Path)
	}
	if got := st.ShardStatus()[0].Stored; got != stored {
		t.Fatalf("reloaded generation stores %d rows, want the compacted file's %d", got, stored)
	}
	for _, path := range paths {
		bodies := make([][]byte, 2)
		for i, m := range modes[:2] {
			rec := httptest.NewRecorder()
			m.s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			bodies[i] = rec.Body.Bytes()
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("%s after the reload: %.400s\nbut the compacted boot answers\n%.400s", path, bodies[0], bodies[1])
		}
	}
}
