package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"csrplus/internal/core"
)

// TestCompactedFileAnswersLikeDenseV2 is the cross-version half of the
// format change: one index, as the v2 file the last v2 writer left of it
// (every row stored, twelve of the 48 all zero) and as the v3 file that
// leaves those rows out, answers /topk and /similarity with byte-identical
// bodies — at K = 1 and through a router over three wire workers booted from
// the compacted per-shard files — for sources, targets and excluded nodes
// among the rows left out, and for k up to, at and past the rows stored.
// (internal/shard holds the routers over K = 2, 3 and 7 slots, and over
// slots that store nothing, to the same answers.)
func TestCompactedFileAnswersLikeDenseV2(t *testing.T) {
	const n, stored = 48, 36
	v2 := filepath.Join("..", "..", "internal", "core", "testdata", "index.v2-sparse.csrx")
	dense, err := core.LoadIndex(v2)
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	compact := dense.Compact()
	if dense.Stored() != n || compact.Stored() != stored {
		t.Fatalf("fixture stores %d rows, %d compacted: want %d and %d", dense.Stored(), compact.Stored(), n, stored)
	}
	v3 := filepath.Join(t.TempDir(), "compact.csrx")
	if err := core.SaveIndex(compact, v3); err != nil {
		t.Fatal(err)
	}

	// The flags must name a graph of the index's size; no boot below reads it.
	base := []string{"-graph", graphFile(t), "-n", fmt.Sprint(n)}
	type mode struct {
		name string
		s    *server
	}
	modes := []mode{
		{"v2 file", bootFlags(t, append(base, "-index", v2)...)},
		{"v3 file", bootFlags(t, append(base, "-index", v3)...)},
		{"v3 shard files over the wire", bootFlags(t, "-shardaddrs", wireWorkers(t, publishShards(t, compact, 3), 3, nil))},
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

	// What a generation stores is on /stats: the whole index's and each slot's.
	for _, m := range modes[:2] {
		srv := httptest.NewServer(m.s.mux())
		_, stats := get(t, srv, "/stats")
		srv.Close()
		wantStored, wantBytes := dense.Stored(), dense.IndexShard.Bytes()
		if m.s == modes[1].s {
			wantStored, wantBytes = compact.Stored(), compact.IndexShard.Bytes()
		}
		slot := stats["shards"].([]interface{})[0].(map[string]interface{})
		if stats["rows_stored"] != float64(wantStored) || stats["n"] != float64(n) || stats["index_bytes"] != float64(wantBytes) ||
			slot["rows_stored"] != float64(wantStored) || slot["bytes"] != float64(wantBytes) {
			t.Fatalf("%s: /stats reports rows_stored=%v n=%v index_bytes=%v (slot: %v), want %d, %d, %d", m.name,
				stats["rows_stored"], stats["n"], stats["index_bytes"], slot, wantStored, n, wantBytes)
		}
	}
}
