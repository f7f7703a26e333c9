package wire_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/wire"
)

const tN, tRank = 101, 4

func randomGraph(t testing.TB, n int, seed int64) *csrplus.Graph {
	t.Helper()
	edges := make([][2]int, 0, 4*n)
	state := uint64(seed)*2654435761 + 1
	next := func(m int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(m))
	}
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
		for e := 0; e < 3; e++ {
			edges = append(edges, [2]int{next(n), next(n)})
		}
	}
	g, err := csrplus.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEngineIndex(t testing.TB, seed int64) (*csrplus.Engine, *core.Index) {
	t.Helper()
	eng, err := csrplus.NewEngine(randomGraph(t, tN, seed), csrplus.Options{Rank: tRank})
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := eng.CoreIndex()
	if !ok {
		t.Fatal("CSR+ engine without a core index")
	}
	return eng, ix
}

// startWorkers splits ix into k shards, serves each behind an httptest
// server, and returns the servers plus the in-process shards for
// reference routers.
func startWorkers(t testing.TB, ix *core.Index, k int) ([]*httptest.Server, []*core.IndexShard) {
	t.Helper()
	shards, err := shard.Split(ix, k)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*httptest.Server, k)
	for s := range shards {
		w := wire.NewWorker(shards[s], 0, wire.WorkerConfig{Shard: s})
		servers[s] = httptest.NewServer(w.Handler())
		t.Cleanup(servers[s].Close)
	}
	return servers, shards
}

// testOptions returns client options tuned for tests: deterministic
// jitter, one attempt per call.
func testOptions() wire.Options {
	return wire.Options{
		Timeout:     30 * time.Second,
		MaxAttempts: 1,
		Seed:        1,
	}
}

func dialAll(t testing.TB, servers []*httptest.Server, opt wire.Options) ([]*wire.RemoteEngine, []shard.Slot) {
	t.Helper()
	engines := make([]*wire.RemoteEngine, len(servers))
	slots := make([]shard.Slot, len(servers))
	for i, srv := range servers {
		o := opt
		o.Shard = i
		e, err := wire.Dial(context.Background(), srv.URL, o)
		if err != nil {
			t.Fatal(err)
		}
		engines[i], slots[i] = e, e
	}
	return engines, slots
}

func wireRouter(t testing.TB, servers []*httptest.Server, opt wire.Options) (*shard.Router, []*wire.RemoteEngine) {
	t.Helper()
	engines, slots := dialAll(t, servers, opt)
	rt, err := shard.NewRouterSlots(slots)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.PrimeBound(); err != nil {
		t.Fatal(err)
	}
	return rt, engines
}

func TestF64sRoundTrip(t *testing.T) {
	in := wire.F64s{0, 1, -1, 0.1, math.Pi, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Float64frombits(0x0000000000000001)}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out wire.F64s
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Fatalf("element %d: %x != %x", i, math.Float64bits(out[i]), math.Float64bits(in[i]))
		}
	}
	var bad wire.F64s
	if err := json.Unmarshal([]byte(`"AAA="`), &bad); err == nil {
		t.Fatal("payload not a multiple of 8 bytes decoded without error")
	}
}

// TestWireRouterMatchesMonolithic is the wire-split equivalence property:
// a router over HTTP shard workers answers bitwise-identically to the
// in-process router over the same shards and to the monolithic engine —
// top-k at several k, and targeted scores.
func TestWireRouterMatchesMonolithic(t *testing.T) {
	eng, ix := testEngineIndex(t, 1)
	querySets := [][]int{{7}, {0}, {tN - 1}, {0, tN - 1}, {13, 42, 99}, {3, 50, 50, 77}}
	targets := []int{0, 1, 17, 50, tN - 1}
	ctx := context.Background()
	for _, k := range []int{1, 4} {
		servers, shards := startWorkers(t, ix, k)
		local, err := shard.NewRouter(shards)
		if err != nil {
			t.Fatal(err)
		}
		remote, _ := wireRouter(t, servers, testOptions())
		for _, queries := range querySets {
			for _, topN := range []int{1, 10, tN} {
				want, err := local.TopK(ctx, queries, topN)
				if err != nil {
					t.Fatal(err)
				}
				got, err := remote.TopKTagged(ctx, queries, topN, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got.Missing != 0 || got.ErrorBound != 0 {
					t.Fatalf("K=%d healthy cluster tagged missing=%d bound=%v", k, got.Missing, got.ErrorBound)
				}
				if len(got.Items) != len(want) {
					t.Fatalf("K=%d queries=%v k=%d: %d items, want %d", k, queries, topN, len(got.Items), len(want))
				}
				for i := range want {
					if got.Items[i] != want[i] {
						t.Fatalf("K=%d queries=%v k=%d item %d: got (%d, %x), want (%d, %x)",
							k, queries, topN, i,
							got.Items[i].Node, math.Float64bits(got.Items[i].Score),
							want[i].Node, math.Float64bits(want[i].Score))
					}
				}
			}
			// Single-query top-k must also match the monolithic engine.
			if len(queries) == 1 {
				want, err := eng.TopK(queries[0], 10)
				if err != nil {
					t.Fatal(err)
				}
				got, err := remote.TopKTagged(ctx, queries, 10, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got.Items[i].Node != want[i].Node || got.Items[i].Score != want[i].Score {
						t.Fatalf("K=%d q=%d item %d differs from monolithic engine", k, queries[0], i)
					}
				}
			}
			want, err := local.Scores(ctx, queries, targets)
			if err != nil {
				t.Fatal(err)
			}
			got, err := remote.Scores(ctx, queries, targets)
			if err != nil {
				t.Fatal(err)
			}
			if !got.IsShape(want.Rows, want.Cols) {
				t.Fatalf("K=%d scores shape %dx%d, want %dx%d", k, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("K=%d queries=%v: score %d differs over the wire", k, queries, i)
				}
			}
		}
		// Bounds fetched over the wire must equal the in-process ones.
		if got, want := remote.TruncationBound(0), local.TruncationBound(0); got != want {
			t.Fatalf("K=%d TruncationBound = %v, want %v", k, got, want)
		}
		if got, want := remote.MissingShardBound(), local.MissingShardBound(); got != want || got <= 0 {
			t.Fatalf("K=%d MissingShardBound = %v, want %v (> 0)", k, got, want)
		}
	}
}

// A request the worker refuses — a NaN in the broadcast uq row, which only
// the scan checks, or a query set past serve.MaxQueryNodes, which the
// frontend never forwards — is the caller's error on both scans and on the
// query-row gather: /shard/query answers it 400 as /shard/scores and
// /shard/urows do, so the client sends it once, leaves the slot's breaker
// (which also gates queries) uncharged and does not report the slot down,
// which would make a router skip the shard as missing. A query set at the
// cap is served.
func TestRefusedScanIsOneRequest(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	shards, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	var posts atomic.Int64
	inner := wire.NewWorker(shards[0], 0, wire.WorkerConfig{Shard: 0}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/query" || r.URL.Path == "/shard/scores" || r.URL.Path == "/shard/urows" {
			posts.Add(1)
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()
	e, err := wire.Dial(context.Background(), srv.URL, wire.Options{Shard: 0}) // default retries
	if err != nil {
		t.Fatal(err)
	}
	uq := dense.NewMat(1, tRank)
	uq.Set(0, 0, math.NaN())
	atCap, atCapUQ := make([]int, serve.MaxQueryNodes), dense.NewMat(serve.MaxQueryNodes, tRank)
	over, overUQ := make([]int, serve.MaxQueryNodes+1), dense.NewMat(serve.MaxQueryNodes+1, tRank)
	ctx := context.Background()
	row := []int{shards[0].Lo()}
	if _, err := e.PartialTopK(ctx, atCap, atCapUQ, 3, 0); err != nil {
		t.Fatalf("/shard/query with |Q| = %d: %v", len(atCap), err)
	}
	if _, err := e.ScoreRows(ctx, atCap, atCapUQ, row); err != nil {
		t.Fatalf("/shard/scores with |Q| = %d: %v", len(atCap), err)
	}
	if _, err := e.URows(ctx, atCap); err != nil {
		t.Fatalf("/shard/urows for %d query nodes: %v", len(atCap), err)
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"/shard/query with a NaN uq row", func() error { _, err := e.PartialTopK(ctx, []int{1}, uq, 3, 0); return err }},
		{"/shard/scores with a NaN uq row", func() error { _, err := e.ScoreRows(ctx, []int{1}, uq, row); return err }},
		{"/shard/query with |Q| past the cap", func() error { _, err := e.PartialTopK(ctx, over, overUQ, 3, 0); return err }},
		{"/shard/scores with |Q| past the cap", func() error { _, err := e.ScoreRows(ctx, over, overUQ, row); return err }},
		{"/shard/urows with |Q| past the cap", func() error { _, err := e.URows(ctx, over); return err }},
	} {
		before := posts.Load()
		err := tc.call()
		if err == nil || errors.Is(err, shard.ErrSlotDown) || !strings.Contains(err.Error(), "http 400") {
			t.Fatalf("%s: err = %v, want the worker's http 400, not ErrSlotDown", tc.name, err)
		}
		if got := posts.Load() - before; got != 1 {
			t.Fatalf("%s was sent %d times, want once", tc.name, got)
		}
		if st := e.Stats(); st.BreakerOpen || st.ConsecutiveFailures != 0 || st.Retries != 0 {
			t.Fatalf("%s: the refusal charged the slot: %+v", tc.name, st)
		}
	}
}

// rawPost returns the body a worker answers one request with.
func rawPost(t *testing.T, url, path string, req any) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d %s (%v)", path, resp.StatusCode, out, err)
	}
	return string(out)
}

// TestWorkerIgnoresLegacyRank is a router from before the query-time rank
// went talking to a worker after it: its /shard/query and /shard/scores
// bodies carry a "rank" field, which the worker must ignore, answering bit
// for bit as it answers the same body without the field.
func TestWorkerIgnoresLegacyRank(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	servers, _ := startWorkers(t, ix, 1)
	url, q := servers[0].URL, 7
	var u wire.URowsResponse
	if err := json.Unmarshal([]byte(rawPost(t, url, "/shard/urows", wire.URowsRequest{Nodes: []int{q}})), &u); err != nil {
		t.Fatal(err)
	}
	for path, req := range map[string]any{
		"/shard/query":  wire.QueryRequest{Queries: []int{q}, UQ: u.Rows, K: tN},
		"/shard/scores": wire.ScoresRequest{Queries: []int{q}, UQ: u.Rows, Rows: []int{0, q, 50, tN - 1}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var legacy map[string]json.RawMessage
		if err := json.Unmarshal(body, &legacy); err != nil {
			t.Fatal(err)
		}
		legacy["rank"] = json.RawMessage("3")
		if got, want := rawPost(t, url, path, legacy), rawPost(t, url, path, req); got != want {
			t.Fatalf("%s with \"rank\": 3 answered\n%s\nwithout it\n%s", path, got, want)
		}
	}
}

func TestWorkerAuthAndValidation(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	shards, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWorker(shards[0], 0, wire.WorkerConfig{Shard: 0, AdminToken: "sesame"})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	post := func(path, auth string, body string) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/admin/reload", "", ""); code != http.StatusUnauthorized {
		t.Fatalf("reload without token: %d, want 401", code)
	}
	if code := post("/admin/reload", "Bearer wrong", ""); code != http.StatusForbidden {
		t.Fatalf("reload with bad token: %d, want 403", code)
	}
	// The right token passes auth; the reload itself fails (no snapshot
	// dir behind this worker), which must surface as 500, not an auth code.
	if code := post("/admin/reload", "Bearer sesame", ""); code != http.StatusInternalServerError {
		t.Fatalf("authorised reload with no snapshots: %d, want 500", code)
	}
	noAuth := wire.NewWorker(shards[0], 0, wire.WorkerConfig{Shard: 0})
	srv2 := httptest.NewServer(noAuth.Handler())
	defer srv2.Close()
	req, _ := http.NewRequest(http.MethodPost, srv2.URL+"/admin/reload", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("reload with admin disabled: %d, want 403", resp.StatusCode)
	}

	// Request validation: un-owned node, bad UQ shape, bad k, bad method.
	lo, hi := shards[0].Lo(), shards[0].Hi()
	if code := post("/shard/urows", "", `{"nodes":[`+itoa(hi)+`]}`); code != http.StatusBadRequest {
		t.Fatalf("urows outside [%d, %d): %d, want 400", lo, hi, code)
	}
	if code := post("/shard/query", "", `{"queries":[1],"uq":"","k":3}`); code != http.StatusBadRequest {
		t.Fatalf("query with empty uq: %d, want 400", code)
	}
	if code := post("/shard/query", "", `{"queries":[],"k":3}`); code != http.StatusBadRequest {
		t.Fatalf("query with no queries: %d, want 400", code)
	}
	// A k nobody can mean: 2^40 used to reach make([]Item, 0, k) and take
	// the worker down with an out-of-memory throw. k = n is the most a
	// router ever asks for.
	uq, _ := json.Marshal(make(wire.F64s, tRank))
	query := func(k string) string { return `{"queries":[1],"uq":` + string(uq) + `,"k":` + k + `}` }
	if code := post("/shard/query", "", query("1099511627776")); code != http.StatusBadRequest {
		t.Fatalf("query with k = 2^40: %d, want 400", code)
	}
	if code := post("/shard/query", "", query(itoa(tN+1))); code != http.StatusBadRequest {
		t.Fatalf("query with k = n+1: %d, want 400", code)
	}
	if code := post("/shard/query", "", query(itoa(tN))); code != http.StatusOK {
		t.Fatalf("query with k = n: %d, want 200", code)
	}
	// |rows| x |Q| is a product of two lengths the body chooses: 1025 x 1024
	// is one past the 2^20 scores a call may ask for.
	many := func(n, v int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = v
		}
		return ids
	}
	scores := func(rows int) string {
		raw, _ := json.Marshal(wire.ScoresRequest{Queries: many(1024, 1), UQ: make(wire.F64s, 1024*tRank), Rows: many(rows, lo)})
		return string(raw)
	}
	if code := post("/shard/scores", "", scores(1025)); code != http.StatusBadRequest {
		t.Fatalf("scores for 1025 rows x 1024 queries: %d, want 400", code)
	}
	if code := post("/shard/scores", "", scores(1024)); code != http.StatusOK {
		t.Fatalf("scores for 1024 rows x 1024 queries: %d, want 200", code)
	}
	getResp, err := http.Get(srv.URL + "/shard/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /shard/query: %d, want 405", getResp.StatusCode)
	}
	// Health endpoints are always live once the worker is constructed.
	for _, p := range []string{"/healthz", "/readyz"} {
		hr, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		var ready wire.ReadyResponse
		if err := json.NewDecoder(hr.Body).Decode(&ready); err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK || ready.Status != "ok" || ready.Generation != 1 {
			t.Fatalf("%s: %d %+v", p, hr.StatusCode, ready)
		}
	}
}

func itoa(v int) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

// TestRollWorkersSnapshotLifecycle walks the full remote-roll contract:
// snapshot-booted workers, a publish + RollWorkers moving every worker to
// the new generation (and the router's answers to the new factors), and
// an abort-on-first-failure partial roll leaving a mixed but serving
// cluster.
func TestRollWorkersSnapshotLifecycle(t *testing.T) {
	_, ixA := testEngineIndex(t, 1)
	engB, ixB := testEngineIndex(t, 2)
	const k = 3
	root := t.TempDir()
	if err := shard.PublishSnapshots(root, ixA, k); err != nil {
		t.Fatal(err)
	}
	servers := make([]*httptest.Server, k)
	workers := make([]*wire.Worker, k)
	for s := range workers {
		w, err := wire.BootWorker(wire.WorkerConfig{Shard: s, SnapshotDir: core.ShardDir(root, s), AdminToken: "sesame"})
		if err != nil {
			t.Fatal(err)
		}
		workers[s] = w
		servers[s] = httptest.NewServer(w.Handler())
		t.Cleanup(servers[s].Close)
	}
	opt := testOptions()
	opt.AdminToken = "sesame"
	rt, engines := wireRouter(t, servers, opt)

	// Publish index B's factors and roll the cluster onto them.
	if err := shard.PublishSnapshots(root, ixB, k); err != nil {
		t.Fatal(err)
	}
	swapped, err := wire.RollWorkers(context.Background(), engines)
	if err != nil || swapped != k {
		t.Fatalf("RollWorkers = %d, %v; want %d, nil", swapped, err, k)
	}
	for s, e := range engines {
		if e.Generation() != 2 {
			t.Fatalf("engine %d generation %d after roll, want 2", s, e.Generation())
		}
	}
	queries := []int{3, 50}
	want, err := engB.TopKMulti(queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.TopKTagged(context.Background(), queries, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Items[i].Node != want[i].Node || got.Items[i].Score != want[i].Score {
			t.Fatalf("post-roll item %d differs from index B's monolithic answer", i)
		}
	}

	// A publish cut for a cluster of another size holds other ranges: the
	// worker refuses it before the swap (409) and the roll stops there,
	// nothing swapped, index B still serving. A refusal is the worker's
	// verdict, not a down slot: the client neither calls it ErrSlotDown
	// nor charges it to the breaker that gates the worker's queries.
	if err := shard.PublishSnapshots(root, ixA, k+1); err != nil {
		t.Fatal(err)
	}
	if _, err := workers[0].Reload(); !errors.Is(err, shard.ErrShard) {
		t.Fatalf("reload of a shard cut for another range: err = %v, want ErrShard", err)
	}
	swapped, err = wire.RollWorkers(context.Background(), engines)
	if err == nil || swapped != 0 || errors.Is(err, shard.ErrSlotDown) || !strings.Contains(err.Error(), "http 409") {
		t.Fatalf("roll onto shards cut for another range = %d, %v; want 0 and the worker's 409", swapped, err)
	}
	if st := engines[0].Stats(); st.ConsecutiveFailures != 0 {
		t.Fatalf("worker 0's refusal charged its breaker: %+v", st)
	}
	if got, err = rt.TopKTagged(context.Background(), queries, 10, 0); err != nil || got.Items[0].Node != want[0].Node || got.Items[0].Score != want[0].Score {
		t.Fatalf("after the refused roll: %+v, %v; want index B's answer", got.Items, err)
	}

	// Kill worker 1 and roll again: worker 0 swaps, the roll aborts at
	// worker 1, worker 2 is never touched — and the cluster still serves.
	servers[1].Close()
	if err := shard.PublishSnapshots(root, ixA, k); err != nil {
		t.Fatal(err)
	}
	swapped, err = wire.RollWorkers(context.Background(), engines)
	if err == nil || swapped != 1 {
		t.Fatalf("partial roll = %d, %v; want 1 and an error", swapped, err)
	}
	if !errors.Is(err, shard.ErrSlotDown) {
		t.Fatalf("partial roll error %v, want ErrSlotDown", err)
	}
	if g := engines[0].Generation(); g != 3 {
		t.Fatalf("worker 0 generation %d, want 3 (rolled before the abort)", g)
	}
	res, err := rt.TopKTagged(context.Background(), []int{3}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missing != 1 || res.ErrorBound <= 0 {
		t.Fatalf("degraded serve after crash: missing=%d bound=%v, want 1 and > 0", res.Missing, res.ErrorBound)
	}
}

// frozenClock is a clock whose time never moves: an open breaker stays
// open, and nothing the client waits on fires.
type frozenClock struct{ now time.Time }

func (c frozenClock) Now() time.Time                       { return c.now }
func (c frozenClock) After(time.Duration) <-chan time.Time { return nil }

// TestSlowWorkerIsAskedOnce is the structural form of "a shard's partials
// are never counted twice": a worker that has answered 16 fast queries
// and then takes 20 ms over the next is asked that query exactly once —
// no second request races the first — and the merge is bitwise the
// in-process router's.
func TestSlowWorkerIsAskedOnce(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	shards, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	var queryCalls atomic.Int64
	var slowNext atomic.Bool
	inner := wire.NewWorker(shards[0], 0, wire.WorkerConfig{Shard: 0}).Handler()
	srv0 := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/query" {
			queryCalls.Add(1)
			if slowNext.CompareAndSwap(true, false) {
				time.Sleep(20 * time.Millisecond)
			}
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv0.Close()
	srv1 := httptest.NewServer(wire.NewWorker(shards[1], 0, wire.WorkerConfig{Shard: 1}).Handler())
	defer srv1.Close()
	rt, engines := wireRouter(t, []*httptest.Server{srv0, srv1}, testOptions())

	ctx := context.Background()
	queries := []int{3, 77}
	for i := 0; i < 16; i++ {
		if _, err := rt.TopKTagged(ctx, queries, 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	want, err := local.TopK(ctx, queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	before := queryCalls.Load()
	slowNext.Store(true)
	res, err := rt.TopKTagged(ctx, queries, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if calls := queryCalls.Load() - before; calls != 1 {
		t.Fatalf("worker 0 saw %d /shard/query requests for one logical call, want 1", calls)
	}
	if slowNext.Load() {
		t.Fatal("the slow request never reached worker 0")
	}
	if res.Missing != 0 || res.ErrorBound != 0 {
		t.Fatalf("slow-worker query tagged missing=%d bound=%v", res.Missing, res.ErrorBound)
	}
	if len(res.Items) != len(want) {
		t.Fatalf("%d items, want %d", len(res.Items), len(want))
	}
	for i := range want {
		if res.Items[i] != want[i] {
			t.Fatalf("item %d: got (%d, %x), want (%d, %x)", i,
				res.Items[i].Node, math.Float64bits(res.Items[i].Score),
				want[i].Node, math.Float64bits(want[i].Score))
		}
	}
	if st := engines[0].Stats(); st.Hedges != 0 || st.Retries != 0 {
		t.Fatalf("worker 0 stats %+v, want no hedges and no retries", st)
	}
}

// TestBreakerOpensAndFailsFast pins the per-shard circuit breaker on a
// fake clock: consecutive failures open it, an open breaker fails without
// touching the network, and context cancellations never count as shard
// failures.
func TestBreakerOpensAndFailsFast(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	servers, _ := startWorkers(t, ix, 2)
	opt := testOptions()
	opt.Clock = frozenClock{time.Unix(1, 0)}
	opt.Timeout = 2 * time.Second
	opt.BreakerThreshold = 1
	opt.BreakerCooldown = time.Hour
	rt, engines := wireRouter(t, servers, opt)

	// A cancelled caller context is not evidence the worker is down.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engines[1].BoundTerms(cancelled); err == nil {
		t.Fatal("call with cancelled context succeeded")
	}
	if st := engines[1].Stats(); st.BreakerOpen || st.ConsecutiveFailures != 0 {
		t.Fatalf("breaker charged for a caller cancellation: %+v", st)
	}

	servers[1].Close()
	if _, err := rt.TopKTagged(context.Background(), []int{3}, 5, 0); err != nil {
		t.Fatalf("degraded top-k errored: %v", err)
	}
	st := engines[1].Stats()
	if !st.BreakerOpen || st.ConsecutiveFailures < 1 {
		t.Fatalf("breaker after dead-worker call: %+v", st)
	}
	// While open, calls fail fast without a network attempt; the degrade
	// path keeps serving from the shards that remain.
	before := engines[1].Stats().Retries
	res, err := rt.TopKTagged(context.Background(), []int{3}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missing != 1 {
		t.Fatalf("missing=%d, want 1", res.Missing)
	}
	if wantBound := 1 * rt.MissingShardBound(); res.ErrorBound != wantBound {
		t.Fatalf("error bound %v, want |Q|*MissingShardBound = %v", res.ErrorBound, wantBound)
	}
	if after := engines[1].Stats().Retries; after != before {
		t.Fatalf("open breaker still retried the network: %d -> %d", before, after)
	}
	// A query whose own query node lives on the dead shard must fail:
	// every other shard needs its U rows.
	lo, _ := rt.Plan().Range(1)
	if _, err := rt.TopKTagged(context.Background(), []int{lo}, 5, 0); err == nil {
		t.Fatal("query owned by the dead shard succeeded")
	}
}
