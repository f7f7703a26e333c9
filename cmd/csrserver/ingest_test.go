package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/ingest"
	"csrplus/internal/serve"
)

// ingestFixture boots a -waldir server the way main does. Recovery is
// left to the caller so the readiness gating is testable, and the
// drift-triggered rebuild is disarmed so the over-budget state the
// assertions read holds still (TestDriftBudgetTriggersRebuild arms it).
func ingestFixture(t *testing.T, walDir string, budget float64, token string) (*ingest.Service, *httptest.Server) {
	t.Helper()
	s := bootArgs(t, "-r", "6", "-waldir", walDir, "-driftbudget", fmt.Sprint(budget), "-admintoken", token)
	t.Cleanup(func() { s.ing.Close() })
	s.ing.SetRebuildTrigger(nil)
	srv := httptest.NewServer(s.mux())
	t.Cleanup(srv.Close)
	return s.ing, srv
}

func postEdges(t *testing.T, srv *httptest.Server, token, body string) (int, map[string]interface{}) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/admin/edges", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]interface{}{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /admin/edges response: %v", err)
	}
	return resp.StatusCode, out
}

func TestAdminEdgesLifecycle(t *testing.T) {
	svc, srv := ingestFixture(t, t.TempDir(), 1e-9, "sesame")

	// Until the WAL tail is replayed the replica must not take traffic
	// or writes: acknowledged edges would silently be missing.
	if code, body := doReq(t, srv, http.MethodGet, "/readyz", ""); code != http.StatusServiceUnavailable ||
		body["status"] != "ingest replay in progress" {
		t.Fatalf("readyz during replay: %d %v", code, body)
	}
	if code, _ := postEdges(t, srv, "sesame", `{"edges":[{"src":1,"dst":0}]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("append during replay: %d", code)
	}
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if code, body := doReq(t, srv, http.MethodGet, "/readyz", ""); code != http.StatusOK || body["ingest_ready"] != true {
		t.Fatalf("readyz after replay: %d %v", code, body)
	}

	// Same Bearer discipline as /admin/reload: missing 401, wrong 403.
	if code, _ := postEdges(t, srv, "", `{"edges":[]}`); code != http.StatusUnauthorized {
		t.Fatalf("missing token: %d", code)
	}
	if code, _ := postEdges(t, srv, "wrong", `{"edges":[]}`); code != http.StatusForbidden {
		t.Fatalf("wrong token: %d", code)
	}

	code, body := postEdges(t, srv, "sesame", `{"edges":[{"src":1,"dst":0}]}`)
	if code != http.StatusOK {
		t.Fatalf("append: %d %v", code, body)
	}
	if body["seq"].(float64) != 1 || body["drift_bound"].(float64) <= 0 {
		t.Fatalf("append response: %v", body)
	}

	// The tiny budget is now exceeded: answers must carry the drift bound
	// and be tagged degraded even at full rank.
	if code, body := doReq(t, srv, http.MethodGet, "/topk?node=0&k=3", ""); code != http.StatusOK {
		t.Fatalf("topk: %d %v", code, body)
	} else if deg, ok := body["degraded"].(map[string]interface{}); !ok || deg["drift_bound"].(float64) <= 0 {
		t.Fatalf("drifted answer not tagged: %v", body)
	}

	if code, _ := postEdges(t, srv, "sesame", `{"edges":[{"src":99,"dst":0}]}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range edge: %d", code)
	}
	if code, _ := postEdges(t, srv, "sesame", `{"edges":`); code != http.StatusBadRequest {
		t.Fatalf("truncated body: %d", code)
	}

	if _, body := doReq(t, srv, http.MethodGet, "/stats", ""); body["ingest"] == nil {
		t.Fatalf("stats missing ingest section: %v", body)
	} else if ing := body["ingest"].(map[string]interface{}); ing["last_seq"].(float64) != 1 || ing["budget_exceeded"] != true {
		t.Fatalf("ingest stats: %v", ing)
	} else if b, ok := ing["graph_bytes"].(float64); !ok || b <= 0 {
		t.Fatalf("ingest stats carry no live-graph size: graph_bytes = %v", ing["graph_bytes"])
	}
}

// One over-budget append must, through the trigger boot wires, rebuild
// from the live graph and swap the result in with its drift absorbed.
func TestDriftBudgetTriggersRebuild(t *testing.T) {
	s := bootArgs(t, "-waldir", t.TempDir(), "-driftbudget", "1e-9")
	defer s.ing.Close()
	if err := s.ing.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ing.Append([]ingest.Edge{{Src: 1, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.man.Current().Generation < 2 || s.ing.Stats().Rebuilding {
		if time.Now().After(deadline) {
			t.Fatalf("no rebuild swapped in: status %+v, ingest %+v", s.man.Current(), s.ing.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.man.Current(); st.Source != "ingest-rebuild" || st.M != testGraph(t).M()+1 {
		t.Fatalf("rebuilt status = %+v", st)
	}
	if d := s.ing.DriftBound(); d > 1e-12 {
		t.Fatalf("post-rebuild drift %g", d)
	}
}

// Nothing reads the boot index once the ingest service is built, so a boot
// from a mapped snapshot releases that mapping after the first rebuild swap
// like any other generation's — an append or a query that still read it
// would be a SIGSEGV — and the snapshot may be of any tier. Every answer is
// at full rank: an int8 one carries its quantization bound — |Q| times for
// a top-k — and sits within it of the f64 answer; an f64 answer carries
// none; and the drift is added to that bound.
func TestIngestOutlivesMappedBootGeneration(t *testing.T) {
	var f64Top []serve.Match // the f64 arm's full-rank answers, for the int8 arm
	var f64Pair float64
	for _, tier := range []string{"f64", "int8"} {
		t.Run(tier, func(t *testing.T) {
			snapDir := t.TempDir()
			_, path, err := testEngine(t).SaveSnapshotTier(snapDir, tier)
			if err != nil {
				t.Fatal(err)
			}
			served, err := core.LoadIndex(path)
			if err != nil {
				t.Fatal(err)
			}
			defer served.Close()
			if quantized := served.QuantizationBound() > 0; quantized != (tier == "int8") {
				t.Fatalf("snapshot at tier %s has quantization bound %v", served.Tier(), served.QuantizationBound())
			}
			s := bootArgs(t, "-waldir", t.TempDir(), "-snapshots", snapDir)
			defer s.ing.Close()
			if st := s.man.Current(); st.Source != "snapshot" {
				t.Fatalf("boot source %q, want the mapped snapshot", st.Source)
			}
			if err := s.ing.Recover(); err != nil {
				t.Fatal(err)
			}

			queries, qb := []int{5, 3}, served.QuantizationBound()
			top, err := s.sv.Search(context.Background(), queries, 3)
			if err != nil {
				t.Fatal(err)
			}
			pair, err := s.sv.Score(context.Background(), []int{5}, []int{3})
			if err != nil {
				t.Fatal(err)
			}
			if top.Info.Degraded || top.Info.ErrorBound != float64(len(queries))*qb || pair.Info.Degraded || pair.Info.ErrorBound != qb {
				t.Fatalf("%s full rank: /topk %+v, /similarity %+v; want error_bound |Q| x and 1 x %v, not degraded", tier, top.Info, pair.Info, qb)
			}
			if body, _ := json.Marshal(top.Info); strings.Contains(string(body), "error_bound") != (tier == "int8") {
				t.Fatalf("%s full-rank /topk info %s", tier, body)
			}
			if tier == "f64" {
				f64Top, f64Pair = top.Matches, pair.Pairs[0].Score
			} else {
				// The i-th largest aggregate moves by at most what any one does.
				for i, m := range top.Matches {
					if d := math.Abs(m.Score - f64Top[i].Score); d > top.Info.ErrorBound {
						t.Fatalf("int8 top-k score %d off the f64 one by %v > %v", i, d, top.Info.ErrorBound)
					}
				}
				if d := math.Abs(pair.Pairs[0].Score - f64Pair); d > qb {
					t.Fatalf("int8 pair score off the f64 one by %v > %v", d, qb)
				}
			}

			if _, _, err := s.ing.Append([]ingest.Edge{{Src: 4, Dst: 5}}); err != nil {
				t.Fatal(err)
			}
			res, err := s.sv.Score(context.Background(), []int{5}, []int{3})
			if err != nil {
				t.Fatal(err)
			}
			if drift := res.Info.DriftBound; drift <= 0 || res.Info.ErrorBound != qb+drift {
				t.Fatalf("error_bound %v with drift %v, want the %s snapshot's full-rank bound %v plus the drift",
					res.Info.ErrorBound, drift, tier, qb)
			}
			for round := 0; round < 2; round++ {
				if _, err := s.reload(context.Background()); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.ing.Append([]ingest.Edge{{Src: round, Dst: 5}}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.sv.Search(context.Background(), []int{5}, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIngestRebuildLoaderPublishesSnapshot(t *testing.T) {
	g := testGraph(t)
	snapDir := t.TempDir()
	s := bootArgs(t, "-waldir", t.TempDir(), "-snapshots", snapDir)
	svc := s.ing
	defer svc.Close()
	if _, err := s.reload(context.Background()); err == nil {
		t.Fatal("rebuild before WAL replay succeeded: it would cut a graph missing acknowledged edges")
	}
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Append([]ingest.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	if svc.DriftBound() <= 0 {
		t.Fatal("appends accrued no drift")
	}

	status, err := s.reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if status.Source != "ingest-rebuild" {
		t.Fatalf("reload source %q, want ingest-rebuild", status.Source)
	}
	// Commit promoted the cut's baseline: the new generation serves with
	// zero drift until the next append.
	if d := svc.DriftBound(); d > 1e-12 {
		t.Fatalf("post-commit drift %g", d)
	}
	// The published snapshot covers the live graph (one extra edge's
	// worth of M) and records the cut's WAL sequence, so the next boot
	// replays nothing below it.
	path, _, err := core.CurrentSnapshot(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.WalSeq() != 2 {
		t.Fatalf("snapshot wal seq %d, want 2", ix.WalSeq())
	}
	if status.M != g.M()+2 {
		t.Fatalf("rebuilt over m=%d, want %d", status.M, g.M()+2)
	}
}

// TestPublishPrunesSnapshots pins the retention rule on the server's
// publish path (shard.TestPublishSnapshots holds the per-shard publisher to
// the same): however many generations the server publishes, its snapshot
// directory holds at most core.KeepSnapshots of them, and the newest is
// always the last published and still loads.
func TestPublishPrunesSnapshots(t *testing.T) {
	const publishes = core.KeepSnapshots + 3
	t.Run("drift rebuilds", func(t *testing.T) {
		snapDir := t.TempDir()
		s := bootArgs(t, "-waldir", t.TempDir(), "-snapshots", snapDir)
		defer s.ing.Close()
		if err := s.ing.Recover(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < publishes; i++ { // boot priming was publish number one
			if _, err := s.reload(context.Background()); err != nil {
				t.Fatal(err)
			}
			snaps, err := filepath.Glob(filepath.Join(snapDir, "index-*.csrx"))
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) > core.KeepSnapshots {
				t.Fatalf("%s holds %d generations, want at most %d", snapDir, len(snaps), core.KeepSnapshots)
			}
			path, gen, err := core.CurrentSnapshot(snapDir)
			if err != nil || gen != uint64(i+2) {
				t.Fatalf("publish %d: the newest generation is %d (%v), want %d", i+2, gen, err, i+2)
			}
			ix, err := core.LoadIndex(path)
			if err == nil {
				err = ix.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, gen, _ := core.CurrentSnapshot(snapDir); gen != publishes+1 {
			t.Fatalf("newest generation %d after %d publishes", gen, publishes+1)
		}
	})
}
