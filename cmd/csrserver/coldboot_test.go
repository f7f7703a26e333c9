package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"csrplus"
	"csrplus/internal/core"
	"csrplus/internal/graph"
	"csrplus/internal/shard"
)

// bodySetDigest is the sha256 over the bodies of a seeded request set — 100
// single-source /topk, 100 sixteen-source /topk and 100 /similarity — sent
// to s in order.
func bodySetDigest(t *testing.T, s *server, n int) string {
	t.Helper()
	return seededBodySetDigest(t, s, n, 23)
}

// seededBodySetDigest is bodySetDigest over the request set seed draws.
func seededBodySetDigest(t *testing.T, s *server, n int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := func(c int) string {
		out := make([]string, c)
		for i := range out {
			out[i] = strconv.Itoa(rng.Intn(n))
		}
		return strings.Join(out, ",")
	}
	var paths []string
	for i := 0; i < 100; i++ {
		paths = append(paths, "/topk?node="+ids(1)+"&k=10")
	}
	for i := 0; i < 100; i++ {
		paths = append(paths, "/topk?nodes="+ids(16)+"&k=100")
	}
	for i := 0; i < 100; i++ {
		nodes := ids(4)
		paths = append(paths, "/similarity?nodes="+nodes+"&targets="+ids(8))
	}
	h := sha256.New()
	mux := s.mux()
	for _, path := range paths {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s", path, rec.Code, rec.Body)
		}
		h.Write(rec.Body.Bytes())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// slotsMapped reads the per-shard "mapped" off /stats and /admin/index,
// which must agree.
func slotsMapped(t *testing.T, s *server) bool {
	t.Helper()
	var mapped [2]bool
	for i, path := range []string{"/stats", "/admin/index"} {
		rec := httptest.NewRecorder()
		s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var body struct {
			Shards []shard.ShardStatus `json:"shards"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || len(body.Shards) != 1 || !strings.Contains(rec.Body.String(), `"mapped":`) {
			t.Fatalf("%s: %v, body %s", path, err, rec.Body)
		}
		mapped[i] = body.Shards[0].Mapped
	}
	if mapped[0] != mapped[1] {
		t.Fatalf("/stats says mapped=%v, /admin/index %v", mapped[0], mapped[1])
	}
	return mapped[0]
}

// TestColdBootServesWhatItPublished: a boot that computes its index and
// publishes it rests at the published file like a boot that found it there —
// the generation in service is the mapping wherever a snapshot boot's would
// be, nothing of the boot keeps the graph, and every body of a seeded
// 300-request set is the one a snapshot boot and an unpublished heap index
// answer.
func TestColdBootServesWhatItPublished(t *testing.T) {
	t.Run("loader keeps no graph", loaderKeepsNoGraph)
	for _, ingest := range []bool{false, true} {
		name := "plain"
		if ingest {
			name = "waldir"
		}
		t.Run(name, func(t *testing.T) {
			flags := func(snaps string) []string {
				args := []string{"-dataset", "FB"}
				if snaps != "" {
					args = append(args, "-snapshots", snaps)
				}
				if ingest {
					args = append(args, "-waldir", t.TempDir(), "-admintoken", "sesame")
				}
				return args
			}
			up := func(args []string) *server {
				s := bootFlags(t, args...)
				if s.ing != nil {
					t.Cleanup(func() { s.ing.Close() })
				}
				return s
			}
			snaps := t.TempDir()
			cold := up(flags(snaps))
			if st := cold.man.Current(); st.Source != "rebuild" || st.SnapshotGen != 1 {
				t.Fatalf("cold boot status = %+v, want a rebuild published as generation 1", st)
			}
			warm := up(flags(snaps))
			if st := warm.man.Current(); st.Source != "snapshot" || st.SnapshotGen != 1 {
				t.Fatalf("second boot status = %+v, want snapshot generation 1", st)
			}
			heap := up(flags(""))

			// What a snapshot boot maps, the cold boot maps; here that is a fact
			// about the platform, and on the platforms CI runs it is "mapped".
			path, _, err := core.CurrentSnapshot(snaps)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := core.LoadIndex(path)
			if err != nil {
				t.Fatal(err)
			}
			want := ix.Mapped()
			n := ix.N()
			ix.Close()
			if got := slotsMapped(t, cold); got != want {
				t.Fatalf("cold boot serves mapped=%v, a load of the file it published is mapped=%v", got, want)
			}
			if got := slotsMapped(t, warm); got != want {
				t.Fatalf("snapshot boot serves mapped=%v, want %v", got, want)
			}
			if slotsMapped(t, heap) {
				t.Fatal("a boot that published nothing claims a mapping")
			}

			digest := bodySetDigest(t, cold, n)
			if got := bodySetDigest(t, warm, n); got != digest {
				t.Fatalf("snapshot boot's body set hashes %s, the cold boot's %s", got, digest)
			}
			if got := bodySetDigest(t, heap, n); got != digest {
				t.Fatalf("unpublished boot's body set hashes %s, the cold boot's %s", got, digest)
			}
		})
	}
}

// loaderKeepsNoGraph: the graph lives for the boot call that reads it.
// wholeIndex outlives the boot as the reload loader, so it may hold no graph
// — no field of a graph type at all — and the edge count the boot reports is
// the one its index carries.
func loaderKeepsNoGraph(t *testing.T) {
	for _, args := range [][]string{
		{"-snapshots", t.TempDir()},
		{"-waldir", t.TempDir(), "-snapshots", t.TempDir()},
		nil,
	} {
		cfg, err := parse(append([]string{"-graph", graphFile(t), "-n", "6", "-r", "3"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		w := &wholeIndex{cfg: cfg}
		src, err := openIndex(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		src.boot.Release()
		if src.ing != nil {
			src.ing.Close()
		}
		if m := src.boot.Meta.M; m != 11 || src.graphLoad <= 0 {
			t.Fatalf("%v: edge count %d and graph clock %v after a boot that read the graph, want 11 and > 0", args, m, src.graphLoad)
		}
		graphs := []reflect.Type{reflect.TypeOf(&csrplus.Graph{}), reflect.TypeOf(&graph.Graph{})}
		v := reflect.ValueOf(w).Elem()
		for i := 0; i < v.NumField(); i++ {
			for _, g := range graphs {
				if ft := v.Type().Field(i).Type; ft == g || ft == g.Elem() {
					t.Fatalf("wholeIndex.%s is a %v: the loader must not keep a graph between calls", v.Type().Field(i).Name, ft)
				}
			}
		}
	}
}
