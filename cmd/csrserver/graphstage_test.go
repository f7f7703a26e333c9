package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrplus/internal/core"
)

// TestSnapshotBootSkipsGraph holds a boot that finds its index on disk to
// not reading the graph: with the -graph file overwritten by bytes the
// edge-list reader rejects, the same flags still boot, serve the bodies the
// cold boot served and report the m the snapshot's header carries; the file
// is read — and its parse error surfaces — only once nothing on disk can
// serve, off the serving path when that is a reload; and a snapshot for
// another node count is refused at boot with the file still unread. A router
// over three workers names no graph at all, and its shard files carry none:
// it serves the same bodies with m = 0.
func TestSnapshotBootSkipsGraph(t *testing.T) {
	const poison = "3 0\n0 potato\n"
	requests := []string{"/topk?node=1&k=4", "/topk?nodes=1,3,3&k=3", "/similarity?nodes=0,5&targets=1,2,5"}
	do := func(t *testing.T, s *server, method, path string) (int, string) {
		t.Helper()
		req := httptest.NewRequest(method, path, nil)
		req.Header.Set("Authorization", "Bearer sesame")
		rec := httptest.NewRecorder()
		s.mux().ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	bodies := func(t *testing.T, s *server) []string {
		t.Helper()
		out := make([]string, len(requests))
		for i, path := range requests {
			code, body := do(t, s, http.MethodGet, path)
			if code != http.StatusOK {
				t.Fatalf("%s: HTTP %d %s", path, code, body)
			}
			out[i] = body
		}
		return out
	}
	same := func(t *testing.T, what string, got, want []string) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s answers\n%s\nwant\n%s", what, requests[i], got[i], want[i])
			}
		}
	}
	graphPath, snaps := graphFile(t), t.TempDir()
	edges, err := os.ReadFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	args := func(n string) []string {
		return []string{"-graph", graphPath, "-n", n, "-r", "3",
			"-snapshots", snaps, "-admintoken", "sesame"}
	}
	cold := bootFlags(t, args("6")...)
	if m := cold.man.Current().M; m != 11 {
		t.Fatalf("cold boot reports m = %d, want the graph's 11", m)
	}
	want := bodies(t, cold)
	if err := os.WriteFile(graphPath, []byte(poison), 0o644); err != nil {
		t.Fatal(err)
	}
	skipped := func(t *testing.T, s *server, m string) {
		t.Helper()
		same(t, "boot over the poisoned graph file", bodies(t, s), want)
		if code, stats := do(t, s, http.MethodGet, "/stats"); code != http.StatusOK || !strings.Contains(stats, `"m":`+m+`,`) {
			t.Fatalf("/stats of a boot that skipped the graph: HTTP %d %s, want m = %s", code, stats, m)
		}
	}

	t.Run("shards=3", func(t *testing.T) {
		path, _, err := core.CurrentSnapshot(snaps)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.LoadIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		skipped(t, bootFlags(t, "-shardaddrs", wireWorkers(t, publishShards(t, ix, 3), 3, nil)), "0")
	})

	t.Run("shards=1", func(t *testing.T) {
		warm := bootFlags(t, args("6")...)
		skipped(t, warm, "11")

		// A snapshot for another node count is refused from the flags alone.
		cfg, err := parse(args("7")...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := boot(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "built for 6 nodes, graph has 7") {
			t.Fatalf("boot with -n 7 over a 6-node snapshot: err = %v", err)
		}

		// A reload that finds no snapshot falls through to a rebuild, reads
		// the graph then, and fails without disturbing the generation in
		// service — or the next attempt.
		entries, err := os.ReadDir(snaps)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := os.RemoveAll(filepath.Join(snaps, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		if code, body := do(t, warm, http.MethodPost, "/admin/reload"); code != http.StatusInternalServerError || !strings.Contains(body, "potato") {
			t.Fatalf("reload over an emptied snapshot directory and a poisoned graph: HTTP %d %s", code, body)
		}
		same(t, "after the failed reload", bodies(t, warm), want)
		if gen := warm.man.Current().Generation; gen != 1 {
			t.Fatalf("failed reload moved the generation to %d", gen)
		}
		if err := os.WriteFile(graphPath, edges, 0o644); err != nil {
			t.Fatal(err)
		}
		if code, body := do(t, warm, http.MethodPost, "/admin/reload"); code != http.StatusOK {
			t.Fatalf("reload over the restored graph: HTTP %d %s", code, body)
		}
		if st := warm.man.Current(); st.Source != "rebuild" || st.M != 11 || st.Generation != 2 {
			t.Fatalf("rebuilt generation = %+v, want a rebuild over m = 11", st)
		}
		same(t, "rebuilt generation", bodies(t, warm), want)
	})
}
