package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/flagmode"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/simd"
	"csrplus/internal/topk"
	"csrplus/internal/wire"
)

func testGraph(t testing.TB) *csrplus.Graph {
	t.Helper()
	g, err := csrplus.NewGraph(6, [][2]int{
		{3, 0}, {0, 1}, {2, 1}, {4, 1}, {3, 2},
		{0, 3}, {4, 3}, {5, 3}, {2, 4}, {5, 4}, {3, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEngine(t testing.TB) *csrplus.Engine {
	t.Helper()
	eng, err := csrplus.NewEngine(testGraph(t), csrplus.Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// coreIndex unwraps the CSR+ index every engine the tests precompute has.
func coreIndex(eng *csrplus.Engine) *core.Index {
	ix, _ := eng.CoreIndex()
	return ix
}

// graphFile writes testGraph's edge list where -graph can load it.
func graphFile(t testing.TB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.txt")
	edges := "3 0\n0 1\n2 1\n4 1\n3 2\n0 3\n4 3\n5 3\n2 4\n5 4\n3 5\n"
	if err := os.WriteFile(path, []byte(edges), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// bareSnapshot copies the index file src into dir as generation gen's
// snapshot — a hand-provisioned directory — and returns dir.
func bareSnapshot(t testing.TB, dir, src string, gen uint64) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, core.SnapshotName(gen)), data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// parse runs args through the real flag table.
func parse(args ...string) (*config, error) {
	fs := flag.NewFlagSet("csrserver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// bootArgs boots a server over testGraph (rank 3) from the rest of a
// command line.
func bootArgs(t testing.TB, args ...string) *server {
	t.Helper()
	return bootFlags(t, append([]string{"-graph", graphFile(t), "-n", "6", "-r", "3"}, args...)...)
}

// bootFlags boots a server from a whole command line the way main does.
func bootFlags(t testing.TB, args ...string) *server {
	t.Helper()
	cfg, err := parse(args...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := boot(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.sv.Close)
	return s
}

// testStack wires an engine through the one candidate constructor, the
// serve layer and a reload.Manager the way a local boot does, over the K=1
// router; its loader rebuilds a candidate over the same router, so
// reload tests can advance the generation without paying for a second
// precompute. before, when non-nil, runs on the pool worker ahead of every
// /topk engine call (gates, delays).
func testStack(tb testing.TB, eng *csrplus.Engine, cfg serve.Config, adminToken string, before func()) *server {
	tb.Helper()
	ix, ok := eng.CoreIndex()
	if !ok {
		tb.Fatal("engine has no core index")
	}
	rt, err := shard.NewRouterFromIndex(ix, 1)
	if err != nil {
		tb.Fatal(err)
	}
	st := eng.Stats()
	meta := reload.Meta{
		Source: "boot", Algorithm: st.Algorithm, M: st.M,
		BuildTime: st.PrecomputeTime, PeakBytes: st.PeakBytes,
	}
	candidate := func(source string) *reload.Candidate {
		m := meta
		m.Source = source
		cand := newCandidate(rt, m, nil, nil)
		if before != nil {
			topK := cand.TopK
			cand.TopK = func(ctx context.Context, queries []int, k, rank int) ([]topk.Item, serve.TopKProvenance, error) {
				before()
				return topK(ctx, queries, k, rank)
			}
		}
		return cand
	}
	bootCand := candidate("boot")
	sv := serve.NewRanked(bootCand.Ranked, cfg)
	sv.Metrics().SetShards(1)
	load := func(context.Context) (*reload.Candidate, error) { return candidate("rebuild"), nil }
	return &server{sv: sv, man: reload.New(sv, load, bootCand.Meta), adminToken: adminToken}
}

// testServer serves a K=1 stack over testEngine.
func testServer(t *testing.T, cfg serve.Config) *httptest.Server {
	return testServerAuth(t, cfg, "")
}

func testServerAuth(t *testing.T, cfg serve.Config, adminToken string) *httptest.Server {
	t.Helper()
	return serveStack(t, testStack(t, testEngine(t), cfg, adminToken, nil))
}

func serveStack(t testing.TB, s *server) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(s.mux())
	t.Cleanup(srv.Close)
	t.Cleanup(s.sv.Close)
	return srv
}

// doReq issues a request with an optional bearer token.
func doReq(t *testing.T, srv *httptest.Server, method, path, token string) (int, map[string]interface{}) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, nil)
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
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func get(t *testing.T, srv *httptest.Server, path string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealth(t *testing.T) {
	srv := testServer(t, serve.Config{})
	code, body := get(t, srv, "/health")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("code=%d body=%v", code, body)
	}
}

func TestStats(t *testing.T) {
	srv := testServer(t, serve.Config{})
	code, body := get(t, srv, "/stats")
	if code != http.StatusOK {
		t.Fatalf("code=%d", code)
	}
	if body["algorithm"] != "CSR+" || body["n"].(float64) != 6 {
		t.Fatalf("body=%v", body)
	}
	if _, ok := body["serving"].(map[string]interface{}); !ok {
		t.Fatalf("stats missing serving section: %v", body)
	}
}

func TestTopKSingle(t *testing.T) {
	srv := testServer(t, serve.Config{})
	code, body := get(t, srv, "/topk?node=1&k=3")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%v", code, body)
	}
	matches := body["matches"].([]interface{})
	if len(matches) != 3 {
		t.Fatalf("matches=%v", matches)
	}
	first := matches[0].(map[string]interface{})
	if int(first["node"].(float64)) != 3 {
		t.Fatalf("top match %v, want node 3", first)
	}
}

func TestTopKMulti(t *testing.T) {
	srv := testServer(t, serve.Config{})
	code, body := get(t, srv, "/topk?nodes=1,3&k=2")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%v", code, body)
	}
	if len(body["matches"].([]interface{})) != 2 {
		t.Fatalf("body=%v", body)
	}
}

func TestSimilarityPairs(t *testing.T) {
	srv := testServer(t, serve.Config{})
	code, body := get(t, srv, "/similarity?node=1&targets=3,4")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%v", code, body)
	}
	pairs := body["pairs"].([]interface{})
	if len(pairs) != 2 {
		t.Fatalf("pairs=%v", pairs)
	}
	p0 := pairs[0].(map[string]interface{})
	if p0["score"].(float64) <= 0 {
		t.Fatalf("pair score %v", p0)
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t, serve.Config{MaxK: 100})
	for _, path := range []string{
		"/topk",                         // missing node
		"/topk?node=zzz",                // unparsable id
		"/topk?node=99",                 // out of range
		"/topk?node=1&k=0",              // bad k
		"/topk?node=1&k=101",            // beyond server-side max k
		"/similarity?node=1",            // missing targets
		"/similarity?node=1&targets=99", // target out of range
	} {
		code, body := get(t, srv, path)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: code=%d body=%v", path, code, body)
		}
		if body["error"] == "" {
			t.Fatalf("%s: no error message", path)
		}
	}
}

func TestKClampedToN(t *testing.T) {
	// k above n but below MaxK clamps to the candidate count instead of
	// erroring: 6-node graph, single query -> 5 matches.
	srv := testServer(t, serve.Config{MaxK: 100})
	code, body := get(t, srv, "/topk?node=1&k=50")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%v", code, body)
	}
	if got := len(body["matches"].([]interface{})); got != 5 {
		t.Fatalf("got %d matches, want 5", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t, serve.Config{})
	if code, _ := get(t, srv, "/topk?node=1&k=3"); code != http.StatusOK {
		t.Fatal("warm-up query failed")
	}
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("code=%d", code)
	}
	if body["requests_admitted"].(float64) < 1 || body["engine_batches"].(float64) < 1 {
		t.Fatalf("metrics=%v", body)
	}
	for _, key := range []string{"batch_occupancy", "latency_seconds", "queue_depth", "requests_shed"} {
		if _, ok := body[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, body)
		}
	}
}

// Every mode sheds the same way: with one worker, a queue of one and the
// one engine call held — a gated top-k over local slots, or a scatter-gather
// stuck on a shard worker that does not answer — a request past what the
// worker and the queue hold gets 429 and a Retry-After.
func TestOverloadReturns429(t *testing.T) {
	local := func(t *testing.T, gate chan struct{}) *server {
		return testStack(t, testEngine(t), serve.Config{MaxPending: 1, Workers: 1}, "", func() { <-gate })
	}
	router := func(t *testing.T, gate chan struct{}) *server {
		var booted atomic.Bool // the router dials every worker at boot
		addrs := wireWorkers(t, publishShards(t, coreIndex(testEngine(t)), 2), 2, func(slot int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if slot == 1 && booted.Load() {
					<-gate
				}
				h.ServeHTTP(w, r)
			})
		})
		cfg, err := parse("-shardaddrs", addrs, "-workers", "1", "-pending", "1")
		if err != nil {
			t.Fatal(err)
		}
		s, err := boot(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		booted.Store(true)
		return s
	}
	for name, stack := range map[string]func(*testing.T, chan struct{}) *server{"local": local, "router": router} {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			var gateOnce sync.Once
			release := func() { gateOnce.Do(func() { close(gate) }) }
			s := stack(t, gate)
			sv := s.sv
			srv := serveStack(t, s)
			defer release()

			results := make(chan *http.Response, 8)
			var wg sync.WaitGroup
			// Capacity with the worker gated is 2 (executing + queued); each
			// sequential launch raises either admitted or shed, so by the 3rd a
			// 429 is guaranteed.
			for i := 0; i < 4; i++ {
				admitted, shed := sv.Metrics().Admitted(), sv.Metrics().Shed()
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Get(srv.URL + "/topk?node=1&k=2")
					if err != nil {
						return
					}
					resp.Body.Close()
					results <- resp
				}()
				deadline := time.Now().Add(5 * time.Second)
				for sv.Metrics().Admitted() == admitted && sv.Metrics().Shed() == shed {
					if time.Now().After(deadline) {
						t.Fatal("request neither admitted nor shed")
					}
					time.Sleep(200 * time.Microsecond)
				}
				if sv.Metrics().Shed() > 0 {
					break
				}
			}
			if sv.Metrics().Shed() == 0 {
				t.Fatal("no request was shed")
			}
			shed := <-results
			if got := shed.StatusCode; got != http.StatusTooManyRequests {
				t.Fatalf("shed request got HTTP %d, want 429", got)
			}
			if shed.Header.Get("Retry-After") == "" {
				t.Fatal("429 without a Retry-After")
			}
			release()
			wg.Wait()
			for i := int64(0); i < sv.Metrics().Admitted(); i++ {
				if resp := <-results; resp.StatusCode != http.StatusOK {
					t.Fatalf("admitted request got HTTP %d once the engine unblocked", resp.StatusCode)
				}
			}
		})
	}
}

func TestDeadlineReturns504(t *testing.T) {
	slow := func() { time.Sleep(100 * time.Millisecond) }
	srv := serveStack(t, testStack(t, testEngine(t), serve.Config{Timeout: 5 * time.Millisecond}, "", slow))
	code, body := get(t, srv, "/topk?node=1&k=2")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code=%d body=%v", code, body)
	}
}

// The flags must name exactly one graph, and its node count, before
// anything is read: most boots never open it. A -dataset's n comes from
// its descriptor.
func TestLoadGraphValidation(t *testing.T) {
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"one of -dataset or -graph is required", nil},
		{"one of -dataset or -graph is required", []string{"-waldir", "d"}},
		{"use either -dataset or -graph, not both", []string{"-dataset", "FB", "-graph", "x.txt", "-n", "5"}},
		{"-graph requires -n", []string{"-graph", "x.txt"}},
		{`unknown dataset "NOPE"`, []string{"-dataset", "NOPE"}},
		// -n and -dscale belong to one kind of graph each: beside the
		// other they are refused, not ignored or read as an override.
		{"-n requires -graph", []string{"-dataset", "WT", "-n", "7"}},
		{"-n requires -graph", []string{"-dataset", "FB", "-n", "5"}},
		{"-dscale requires -dataset", []string{"-graph", "g.txt", "-n", "6", "-dscale", "4"}},
	} {
		if _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		args []string
	}{
		{4039, []string{"-dataset", "FB"}},
		{2048, []string{"-dataset", "WT", "-dscale", "1200", "-waldir", "d"}},
		{6, []string{"-graph", "x.txt", "-n", "6"}},
	} {
		if cfg, err := parse(tc.args...); err != nil {
			t.Errorf("%v: %v", tc.args, err)
		} else if cfg.n != tc.n {
			t.Errorf("%v: n = %d, want %d", tc.args, cfg.n, tc.n)
		}
	}
	// A mistyped -graph fails the boot even when a snapshot would serve it.
	dir := t.TempDir()
	if _, _, err := testEngine(t).SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	cfg, err := parse("-graph", filepath.Join(dir, "nope.txt"), "-n", "6", "-snapshots", dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := boot(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "-graph") {
		t.Fatalf("boot over a missing -graph file: err = %v", err)
	}
}

// rawGet returns the body of a 200 answer to path, byte for byte.
func rawGet(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d %s %v", path, resp.StatusCode, body, err)
	}
	return string(body)
}

// A /topk body is a function of its request: asked again of a server at
// default flags, the same request answers the same bytes, and neither /stats
// nor /metrics counts anything about it but the engine calls.
func TestTopKBodyIsAFunctionOfTheRequest(t *testing.T) {
	srv := serveStack(t, bootArgs(t))
	for _, path := range []string{"/topk?node=1&k=2", "/topk?nodes=1,3,3&k=4"} {
		first := rawGet(t, srv, path)
		for range 2 {
			if again := rawGet(t, srv, path); again != first {
				t.Fatalf("%s: repeat answered %s, first %s", path, again, first)
			}
		}
	}
	for _, path := range []string{"/stats", "/metrics"} {
		if body := rawGet(t, srv, path); strings.Contains(body, `"cache_`) {
			t.Fatalf("%s still reports a result cache: %s", path, body)
		}
	}
}

// BenchmarkTopKHandler measures end-to-end request throughput of the
// /topk route.
func BenchmarkTopKHandler(b *testing.B) {
	srv := serveStack(b, testStack(b, testEngine(b), serve.Config{}, "", nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(srv.URL + "/topk?node=1&k=3")
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestAdminIndexStatus(t *testing.T) {
	srv := testServer(t, serve.Config{})
	code, body := get(t, srv, "/admin/index")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%v", code, body)
	}
	if body["generation"].(float64) != 1 || body["source"] != "boot" {
		t.Fatalf("boot status = %v", body)
	}
	if body["algorithm"] != "CSR+" || body["n"].(float64) != 6 || body["rank"].(float64) != 3 {
		t.Fatalf("index meta = %v", body)
	}
}

func TestAdminReloadDisabledWithoutToken(t *testing.T) {
	srv := testServer(t, serve.Config{})
	// With no -admintoken the endpoint refuses even well-formed requests.
	code, body := doReq(t, srv, http.MethodPost, "/admin/reload", "anything")
	if code != http.StatusForbidden {
		t.Fatalf("code=%d body=%v", code, body)
	}
}

func TestAdminReloadAuthAndSwap(t *testing.T) {
	srv := testServerAuth(t, serve.Config{}, "sesame")
	if code, _ := doReq(t, srv, http.MethodGet, "/admin/reload", "sesame"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload: code=%d", code)
	}
	if code, _ := doReq(t, srv, http.MethodPost, "/admin/reload", ""); code != http.StatusUnauthorized {
		t.Fatalf("missing token: code=%d", code)
	}
	if code, _ := doReq(t, srv, http.MethodPost, "/admin/reload", "wrong"); code != http.StatusForbidden {
		t.Fatalf("wrong token: code=%d", code)
	}
	// No auth failure may trigger a swap.
	if _, body := get(t, srv, "/admin/index"); body["generation"].(float64) != 1 {
		t.Fatalf("auth failures advanced the generation: %v", body)
	}
	code, body := doReq(t, srv, http.MethodPost, "/admin/reload", "sesame")
	if code != http.StatusOK {
		t.Fatalf("authorised reload: code=%d body=%v", code, body)
	}
	if body["generation"].(float64) != 2 || body["source"] != "rebuild" {
		t.Fatalf("reload status = %v", body)
	}
	// The new generation is visible on every status surface and still
	// answers queries.
	if _, body := get(t, srv, "/admin/index"); body["generation"].(float64) != 2 {
		t.Fatalf("/admin/index stale: %v", body)
	}
	_, stats := get(t, srv, "/stats")
	if stats["generation"].(float64) != 2 || stats["algorithm"] != "CSR+" {
		t.Fatalf("/stats after reload: %v", stats)
	}
	serving := stats["serving"].(map[string]interface{})
	if serving["reloads"].(float64) != 1 || serving["generation"].(float64) != 2 {
		t.Fatalf("serving metrics after reload: %v", serving)
	}
	if code, _ := get(t, srv, "/topk?node=1&k=3"); code != http.StatusOK {
		t.Fatal("queries broken after reload")
	}
}

func TestReloadOnHUP(t *testing.T) {
	s := testStack(t, testEngine(t), serve.Config{}, "", nil)
	defer s.sv.Close()
	man := s.man
	ch := make(chan os.Signal) // unbuffered: a send returns only once the loop is ready again
	done := make(chan struct{})
	go func() {
		s.reloadOnHUP(ch)
		close(done)
	}()
	ch <- syscall.SIGHUP
	ch <- syscall.SIGHUP // accepted only after the first reload finished
	close(ch)
	<-done
	if got := man.Current().Generation; got != 3 {
		t.Fatalf("generation after two SIGHUPs = %d, want 3", got)
	}
}

// TestSourceSnapshotResolution covers the boot-source precedence: an
// empty snapshot directory falls back to an in-process rebuild and is
// primed with it; a provisioned one wins.
func TestSourceSnapshotResolution(t *testing.T) {
	dir := t.TempDir()
	cold := bootArgs(t, "-snapshots", dir).man.Current()
	if cold.Source != "rebuild" || cold.SnapshotGen != 1 {
		t.Fatalf("empty snapshot dir: boot status = %+v, want a rebuild published as generation 1", cold)
	}
	warm := bootArgs(t, "-snapshots", dir).man.Current()
	if warm.Source != "snapshot" || warm.SnapshotGen != 1 || warm.Rank != 3 {
		t.Fatalf("snapshot boot status = %+v", warm)
	}
}

// TestBuildClocks pins what the boot and reload log lines say about where
// a generation's build time went: a precompute names the support it
// decomposed, its seven stages, its CholeskyQR passes (nine: the test
// graph's transition matrix has an empty row and two equal ones, so the
// 6-wide sketch of it has dependent columns and each of the three
// orthonormalisations shifts once) and the eigenvalues of ΣPΣ its Gram
// factor clamped (none: the retained σ are positive), a publish is clocked
// after it with the
// read-back inside it, a rebuild over the live graph leads with the cut — as
// a reload that had to read the flags' graph again leads with that — and a
// generation that was only loaded clocks nothing.
func TestBuildClocks(t *testing.T) {
	dir := t.TempDir()
	precompute := `precompute: support=\d+x\d+/\d+ sparse=\S+ ortho=\S+ ortho_passes=9 eig=\S+ solve=\S+ gram=\S+ gram_clamped=0 draw=\S+ rest=\S+`
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"cold boot, published", "^" + precompute + ` publish=\S+ remap=\S+$`, []string{"-snapshots", dir}},
		{"snapshot boot", "^$", []string{"-snapshots", dir}},
		{"plain rebuild", "^" + precompute + "$", nil},
	} {
		if got := bootArgs(t, tc.args...).man.Current().Clocks; !regexp.MustCompile(tc.want).MatchString(got) {
			t.Errorf("%s: clocks %q, want %s", tc.name, got, tc.want)
		}
	}
	st, err := bootArgs(t).reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := `^graph=\S+ ` + precompute + "$"; !regexp.MustCompile(want).MatchString(st.Clocks) {
		t.Errorf("reload with nothing on disk: clocks %q, want %s", st.Clocks, want)
	}
	s := bootArgs(t, "-waldir", t.TempDir(), "-snapshots", t.TempDir())
	defer s.ing.Close()
	if err := s.ing.Recover(); err != nil {
		t.Fatal(err)
	}
	if st, err = s.reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want := `^graph=\S+ ` + precompute + ` publish=\S+ remap=\S+$`; !regexp.MustCompile(want).MatchString(st.Clocks) {
		t.Errorf("ingest rebuild: clocks %q, want %s", st.Clocks, want)
	}
}

// TestAdminReloadPicksUpNewSnapshot is the full operator workflow end to
// end: boot from a snapshot directory, publish a new generation into it,
// trigger an authenticated reload, and watch traffic move over.
func TestAdminReloadPicksUpNewSnapshot(t *testing.T) {
	dir := t.TempDir()
	eng := testEngine(t)
	if _, _, err := eng.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	s := bootArgs(t, "-snapshots", dir, "-admintoken", "sesame")
	srv := httptest.NewServer(s.mux())
	defer srv.Close()

	if _, _, err := eng.SaveSnapshot(dir); err != nil { // publish generation 2
		t.Fatal(err)
	}
	code, body := doReq(t, srv, http.MethodPost, "/admin/reload", "sesame")
	if code != http.StatusOK {
		t.Fatalf("reload: code=%d body=%v", code, body)
	}
	if body["source"] != "snapshot" || body["snapshot_gen"].(float64) != 2 || body["generation"].(float64) != 2 {
		t.Fatalf("reload status = %v", body)
	}
	if code, _ := get(t, srv, "/topk?node=1&k=3"); code != http.StatusOK {
		t.Fatal("queries broken after snapshot reload")
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	srv := testServer(t, serve.Config{})
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: code=%d body=%v", code, body)
	}
	code, body = get(t, srv, "/readyz")
	if code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz: code=%d body=%v", code, body)
	}
	if body["generation"].(float64) != 1 {
		t.Fatalf("readyz generation = %v", body["generation"])
	}
	if br, ok := body["reload_breaker"].(map[string]interface{}); !ok || br["open"] != false {
		t.Fatalf("readyz breaker = %v", body["reload_breaker"])
	}
}

// An open reload breaker must flip readiness to 503 while query traffic
// keeps being answered by the old generation, and POST /admin/reload must
// tell the caller how long the breaker stays open — what is left of its
// ten-second cooldown. The fifth consecutive failed reload opens it, not
// an earlier one. /readyz and /stats say when it closes again (retry_at)
// while it is open, and say nothing of the kind while it is not.
func TestOpenBreakerReadyzAndRetryAfter(t *testing.T) {
	s := testStack(t, testEngine(t), serve.Config{}, "sesame", nil)
	s.man = reload.New(s.sv,
		func(context.Context) (*reload.Candidate, error) { return nil, errTestDown },
		s.man.Current().Meta)
	srv := serveStack(t, s)
	breaker := func(path string) map[string]interface{} {
		t.Helper()
		_, body := get(t, srv, path)
		b, ok := body["reload_breaker"].(map[string]interface{})
		if !ok {
			t.Fatalf("%s has no reload_breaker: %v", path, body)
		}
		return b
	}
	for _, path := range []string{"/readyz", "/stats"} {
		if b := breaker(path); b["open"] != false || len(b) != 2 {
			t.Fatalf("%s breaker while closed = %v, want open=false, consecutive_failures and no retry_at", path, b)
		}
	}

	for i := 1; i <= 5; i++ {
		if code, _ := get(t, srv, "/readyz"); code != http.StatusOK {
			t.Fatalf("readyz after %d failed reloads: code=%d, want 200 until the fifth", i-1, code)
		}
		if _, err := s.man.Reload(context.Background()); err == nil {
			t.Fatal("reload against a down source succeeded")
		}
	}
	code, body := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open breaker: code=%d body=%v", code, body)
	}
	for _, path := range []string{"/readyz", "/stats"} {
		b := breaker(path)
		at, err := time.Parse(time.RFC3339Nano, fmt.Sprint(b["retry_at"]))
		if b["open"] != true || err != nil || time.Until(at) <= 0 || time.Until(at) > 10*time.Second {
			t.Fatalf("%s breaker while open = %v, want open=true and a retry_at at most 10 s away", path, b)
		}
	}
	if code, _ := get(t, srv, "/topk?node=1&k=3"); code != http.StatusOK {
		t.Fatal("old generation stopped answering while breaker open")
	}
	if code, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatal("liveness flipped with the breaker; only readiness should")
	}

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/admin/reload", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("reload against an open breaker: code=%d", resp.StatusCode)
	}
	if got, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || got < 1 || got > 10 {
		t.Fatalf("Retry-After = %q, want whole seconds in [1, 10]", resp.Header.Get("Retry-After"))
	}
}

var errTestDown = fmt.Errorf("snapshot source down")

// Boot must survive a snapshot directory whose newest generation is torn
// (a partial copy): crash recovery serves the newest valid one and flags
// it.
func TestBootRecoversFromTornSnapshotDir(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		if _, _, err := eng.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(filepath.Join(dir, core.SnapshotName(2)), 100); err != nil {
		t.Fatal(err)
	}
	st := bootArgs(t, "-snapshots", dir).man.Current()
	if st.Source != "snapshot" || !st.Recovered || st.SnapshotGen != 1 || st.Rank != 3 {
		t.Fatalf("recovery boot status = %+v, want recovered snapshot gen 1 at rank 3", st)
	}
}

// Every server reports its shard slots — a plain one reports the single
// slot covering [0, n), a router one per worker — and the router over three
// workers answers bitwise-identically to the plain server.
func TestShardedMuxEndpoints(t *testing.T) {
	addrs := wireWorkers(t, publishShards(t, coreIndex(testEngine(t)), 3), 3, nil)
	srv := serveStack(t, bootFlags(t, "-shardaddrs", addrs))
	mono := testServer(t, serve.Config{})

	for _, path := range []string{"/topk?node=1&k=5", "/topk?nodes=1,3&k=4"} {
		codeA, bodyA := get(t, srv, path)
		codeB, bodyB := get(t, mono, path)
		if codeA != http.StatusOK || codeB != http.StatusOK {
			t.Fatalf("%s: sharded=%d mono=%d", path, codeA, codeB)
		}
		a, _ := json.Marshal(bodyA["matches"])
		b, _ := json.Marshal(bodyB["matches"])
		if string(a) != string(b) {
			t.Fatalf("%s: sharded %s != monolithic %s", path, a, b)
		}
	}

	for _, tc := range []struct {
		srv *httptest.Server
		k   int
	}{{srv, 3}, {mono, 1}} {
		code, body := get(t, tc.srv, "/stats")
		if code != http.StatusOK {
			t.Fatalf("/stats code=%d", code)
		}
		shardList, ok := body["shards"].([]interface{})
		if !ok || len(shardList) != tc.k {
			t.Fatalf("/stats shards = %v, want %d", body["shards"], tc.k)
		}
		first := shardList[0].(map[string]interface{})
		if first["lo"].(float64) != 0 || first["generation"].(float64) != 1 {
			t.Fatalf("/stats shard 0 = %v", first)
		}
		if last := shardList[tc.k-1].(map[string]interface{}); last["hi"].(float64) != 6 {
			t.Fatalf("/stats last shard = %v, want it to end at n", last)
		}
		serving := body["serving"].(map[string]interface{})
		if serving["shard_count"].(float64) != float64(tc.k) {
			t.Fatalf("shard_count = %v", serving["shard_count"])
		}

		code, body = get(t, tc.srv, "/admin/index")
		if code != http.StatusOK {
			t.Fatalf("/admin/index code=%d", code)
		}
		if list, ok := body["shards"].([]interface{}); !ok || len(list) != tc.k {
			t.Fatalf("/admin/index shards = %v, want %d", body["shards"], tc.k)
		}
		if _, ok := body["generation"]; !ok {
			t.Fatalf("/admin/index lost generation key: %v", body)
		}
	}
}

// A worker that reloads on its own — its SIGHUP or its /admin/reload, not a
// roll through the router — changes what the router answers at once: no
// answer computed from superseded factors is served again. Worker 1 reloads
// first, and the router answers from the old rows of shard 0 and the new
// rows of shard 1 exactly as local slots holding those two shards do; once
// worker 0 has reloaded too, every body is the one a plain server over the
// new index answers.
func TestWorkerReloadSupersedesAnswers(t *testing.T) {
	old := coreIndex(testEngine(t))
	root := publishShards(t, old, 2)
	addrs := strings.Split(wireWorkers(t, root, 2, nil), ",")
	srv := serveStack(t, bootFlags(t, "-shardaddrs", strings.Join(addrs, ",")))
	asks := []struct {
		path    string
		queries []int
		k       int
	}{
		{"/topk?node=1&k=5", []int{1}, 5},
		{"/topk?node=4&k=5", []int{4}, 5},
		{"/topk?nodes=1,4&k=3", []int{1, 4}, 3},
	}
	before := make([]string, len(asks))
	for i, a := range asks {
		before[i] = rawGet(t, srv, a.path)
	}

	// The new index: testGraph with every edge reversed.
	var reversed [][2]int
	for _, e := range [][2]int{{3, 0}, {0, 1}, {2, 1}, {4, 1}, {3, 2}, {0, 3}, {4, 3}, {5, 3}, {2, 4}, {5, 4}, {3, 5}} {
		reversed = append(reversed, [2]int{e[1], e[0]})
	}
	g, err := csrplus.NewGraph(6, reversed)
	if err != nil {
		t.Fatal(err)
	}
	next, err := csrplus.NewEngine(g, csrplus.Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.PublishSnapshots(root, coreIndex(next), 2); err != nil {
		t.Fatal(err)
	}
	reloadWorker := func(slot int) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, "http://"+addrs[slot]+"/admin/reload", nil)
		req.Header.Set("Authorization", "Bearer sesame")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("worker %d reload: HTTP %d", slot, resp.StatusCode)
		}
	}

	reloadWorker(1)
	oldShards, err := shard.Split(old, 2)
	if err != nil {
		t.Fatal(err)
	}
	newShards, err := shard.Split(coreIndex(next), 2)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := shard.NewRouterSlots([]shard.Slot{shard.NewLocal(oldShards[0]), shard.NewLocal(newShards[1])})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range asks {
		var body struct {
			Matches []serve.Match `json:"matches"`
		}
		raw := rawGet(t, srv, a.path)
		if err := json.Unmarshal([]byte(raw), &body); err != nil {
			t.Fatal(err)
		}
		want, err := mixed.TopK(context.Background(), a.queries, a.k)
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Matches) != len(want) {
			t.Fatalf("%v after worker 1 reloaded: %s, want %v", a.queries, raw, want)
		}
		for i, m := range body.Matches {
			if m.Node != want[i].Node || math.Float64bits(m.Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("%v after worker 1 reloaded: %s, want %v bit for bit", a.queries, raw, want)
			}
		}
	}

	reloadWorker(0)
	plain := serveStack(t, testStack(t, next, serve.Config{}, "", nil))
	for i, a := range asks {
		got := rawGet(t, srv, a.path)
		if want := rawGet(t, plain, a.path); got != want {
			t.Fatalf("%s after both workers reloaded: %s, plain server over the new index %s", a.path, got, want)
		}
		if got == before[i] {
			t.Fatalf("%s: the new index answers %s like the old one; the check proves nothing", a.path, got)
		}
	}
}

// publishShards cuts ix into the per-shard snapshot directories a cluster
// of k workers boots from, as `csrstat -convert root -split k` does, and
// returns their root.
func publishShards(t testing.TB, ix *core.Index, k int) string {
	t.Helper()
	root := t.TempDir()
	if err := shard.PublishSnapshots(root, ix, k); err != nil {
		t.Fatal(err)
	}
	return root
}

// wireWorkers boots k workers the way -shardworker does, from the
// per-shard snapshots under snapDir, behind httptest listeners, and
// returns their addresses as a -shardaddrs value. wrap, when non-nil,
// decorates one worker's handler (gates, failures).
func wireWorkers(t *testing.T, snapDir string, k int, wrap func(slot int, h http.Handler) http.Handler) string {
	t.Helper()
	addrs := make([]string, k)
	for slot := range addrs {
		cfg, err := parse("-shardworker", fmt.Sprint(slot), "-snapshots", snapDir, "-admintoken", "sesame")
		if err != nil {
			t.Fatal(err)
		}
		w, err := wire.BootWorker(wire.WorkerConfig{Shard: slot, SnapshotDir: core.ShardDir(cfg.snapDir, slot), AdminToken: cfg.adminToken})
		if err != nil {
			t.Fatal(err)
		}
		h := w.Handler()
		if wrap != nil {
			h = wrap(slot, h)
		}
		worker := httptest.NewServer(h)
		t.Cleanup(worker.Close)
		addrs[slot] = strings.TrimPrefix(worker.URL, "http://") // a bare host:port, as operators write them
	}
	return strings.Join(addrs, ",")
}

// downSlot is a slot whose worker is unreachable: every query call fails
// the way the wire client reports it.
type downSlot struct{ *shard.Local }

func (downSlot) URows(context.Context, []int) (*dense.Mat, error) { return nil, shard.ErrSlotDown }
func (downSlot) PartialTopK(context.Context, []int, *dense.Mat, int, int) ([]topk.Item, error) {
	return nil, shard.ErrSlotDown
}
func (downSlot) ScoreRows(context.Context, []int, *dense.Mat, []int) ([]float64, error) {
	return nil, shard.ErrSlotDown
}

// A slot the answer cannot do without is as retryable as shed load: 503
// with a Retry-After, not a 500.
func TestSlotDownReturns503(t *testing.T) {
	ix, _ := testEngine(t).CoreIndex()
	shards, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		down []bool
		path string
	}{
		{"query node's owner", []bool{true, false}, "/topk?node=0&k=2"},
		{"target's owner", []bool{false, true}, fmt.Sprintf("/similarity?node=0&targets=%d", ix.N()-1)},
		{"every shard", []bool{true, true}, "/topk?node=0&k=2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slots := make([]shard.Slot, len(shards))
			for i, sh := range shards {
				if slots[i] = shard.NewLocal(sh); tc.down[i] {
					slots[i] = downSlot{shard.NewLocal(sh)}
				}
			}
			rt, err := shard.NewRouterSlots(slots)
			if err != nil {
				t.Fatal(err)
			}
			sv := serve.NewRanked(newCandidate(rt, reload.Meta{}, nil, nil).Ranked, serve.Config{})
			srv := serveStack(t, &server{sv: sv, man: reload.New(sv, nil, reload.Meta{})})
			resp, err := http.Get(srv.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("HTTP %d Retry-After=%q body=%s, want 503 with Retry-After: 1", resp.StatusCode, resp.Header.Get("Retry-After"), body)
			}
		})
	}
}

// TestModeTable holds the binary to "every mode combination is supported
// and tested or does not exist": each command line either boots through
// the one candidate constructor and answers top-k bitwise-equal to
// Engine.TopK / TopKMulti, or is rejected with a message naming the flag.
func TestModeTable(t *testing.T) {
	eng := testEngine(t)
	ix, _ := eng.CoreIndex()
	single, err := eng.TopK(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := eng.TopKMulti([]int{1, 3, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, s *server) {
		t.Helper()
		for _, tc := range []struct {
			queries []int
			want    []csrplus.Match
		}{{[]int{1}, single}, {[]int{1, 3, 3}, multi}} {
			res, err := s.sv.Search(context.Background(), tc.queries, len(tc.want))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != len(tc.want) {
				t.Fatalf("top-k of %v = %v, want %v", tc.queries, res.Matches, tc.want)
			}
			for i, m := range res.Matches {
				if m.Node != tc.want[i].Node || math.Float64bits(m.Score) != math.Float64bits(tc.want[i].Score) {
					t.Fatalf("top-k of %v = %v, want %v bit for bit", tc.queries, res.Matches, tc.want)
				}
			}
		}
	}

	// A pre-built file is served by publishing it into a snapshot directory.
	snaps, bare := t.TempDir(), t.TempDir()
	if _, _, err := eng.SaveSnapshot(bare); err != nil {
		t.Fatal(err)
	}
	boots := []struct {
		name   string
		args   []string
		source string
	}{
		{"K=1", nil, "rebuild"},
		{"K=1 priming -snapshots", []string{"-snapshots", snaps}, "rebuild"},
		{"K=1 from the mapped snapshot", []string{"-snapshots", snaps}, "snapshot"},
		{"K=1 from a bare snapshot file", []string{"-snapshots", bare}, "snapshot"},
		{"-waldir", []string{"-waldir", t.TempDir(), "-driftbudget", "0", "-admintoken", "sesame"}, "rebuild"},
		{"-waldir from the mapped snapshot", []string{"-waldir", t.TempDir(), "-snapshots", snaps}, "snapshot"},
	}
	for _, tc := range boots {
		t.Run(tc.name, func(t *testing.T) {
			s := bootArgs(t, tc.args...)
			if s.ing != nil {
				defer s.ing.Close()
				if err := s.ing.Recover(); err != nil {
					t.Fatal(err)
				}
			}
			st := s.man.Current()
			if st.Source != tc.source || len(st.ShardStatus()) != 1 {
				t.Fatalf("booted source=%s with %d shards, want %s with 1", st.Source, len(st.ShardStatus()), tc.source)
			}
			check(t, s)
			// The generation after a reload answers the same bits.
			if _, err := s.reload(context.Background()); err != nil {
				t.Fatal(err)
			}
			check(t, s)
		})
	}

	// Remote slots: the workers boot the way -shardworker does, from
	// published per-shard snapshots, behind httptest listeners.
	t.Run("-shardaddrs", func(t *testing.T) {
		cfg, err := parse("-shardaddrs", wireWorkers(t, publishShards(t, ix, 3), 3, nil), "-admintoken", "sesame")
		if err != nil {
			t.Fatal(err)
		}
		s, err := boot(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.sv.Close()
		if st := s.man.Current(); st.Source != "wire" || len(st.ShardStatus()) != 3 || st.N != ix.N() {
			t.Fatalf("router boot status = %+v", st)
		}
		check(t, s)
		if _, err := s.reload(context.Background()); err != nil { // rolls the three workers
			t.Fatal(err)
		}
		check(t, s)
		if stats, ok := s.sv.Metrics().Snapshot()["wire_shards"].([]wire.SlotStats); !ok || len(stats) != 3 {
			t.Fatalf("router /metrics wire_shards = %v", s.sv.Metrics().Snapshot()["wire_shards"])
		}
	})

	rejects := []struct {
		args []string
		flag string
	}{
		{[]string{"-shardworker", "0", "-snapshots", "d", "-shardaddrs", "a:1"}, "-shardaddrs"},
		{[]string{"-shardworker", "0", "-snapshots", "d", "-dataset", "FB"}, "-dataset"},
		{[]string{"-shardworker", "0", "-snapshots", "d", "-workers", "2"}, "-workers"},
		{[]string{"-shardworker", "0"}, "-snapshots"},
		{[]string{"-shardaddrs", "a:1", "-waldir", "d"}, "-waldir"},
		{[]string{"-shardaddrs", "a:1", "-driftbudget", "0.1"}, "-driftbudget"},
		{[]string{"-shardaddrs", "a:1", "-snapshots", "d"}, "-snapshots"},
		{[]string{"-shardaddrs", "a:1", "-graph", "g", "-n", "6"}, "-graph"},
		{[]string{"-dataset", "FB", "-driftbudget", "0.1"}, "-driftbudget"},
		{[]string{"-dataset", "FB", "-algo", "CSR-NI"}, "-algo"}, // baselines live in csrquery/csrbench
		// No mode coalesces, and sharding is a cluster (-shardaddrs): these
		// are not flags any more.
		{[]string{"-dataset", "FB", "-maxbatch", "8"}, "-maxbatch"},
		{[]string{"-dataset", "FB", "-linger", "1ms"}, "-linger"},
		{[]string{"-dataset", "FB", "-shards", "2"}, "flag provided but not defined: -shards"},
		// Nothing is memoised: there is no result cache to size.
		{[]string{"-dataset", "FB", "-cache", "0"}, "flag provided but not defined: -cache"},
		// A shard call is one request: there is no hedge quantile to set.
		{[]string{"-dataset", "FB", "-wirehedge", "0.5"}, "flag provided but not defined: -wirehedge"},
		// The snapshot directory is the one on-disk path: a pre-built file
		// is copied into it, and what is published there is what serves.
		{[]string{"-dataset", "FB", "-index", "ix.csrx"}, "flag provided but not defined: -index"},
		{[]string{"-dataset", "FB", "-saveindex", "ix.csrx"}, "flag provided but not defined: -saveindex"},
		{[]string{"-dataset", "FB", "-snapshots", "d", "-quantize", "int8"}, "flag provided but not defined: -quantize"},
		// A reload is one attempt and the breaker's limits are constants.
		{[]string{"-dataset", "FB", "-reloadretries", "1"}, "flag provided but not defined: -reloadretries"},
		{[]string{"-dataset", "FB", "-breakerfails", "1"}, "flag provided but not defined: -breakerfails"},
		{[]string{"-dataset", "FB", "-breakercooldown", "90s"}, "flag provided but not defined: -breakercooldown"},
		// Every answer is at full rank, whatever the load.
		{[]string{"-dataset", "FB", "-degraderank", "2"}, "flag provided but not defined: -degraderank"},
		{[]string{"-dataset", "FB", "-degradebudget", "1h"}, "flag provided but not defined: -degradebudget"},
	}
	for _, tc := range rejects {
		if _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want a rejection naming %s", tc.args, err, tc.flag)
		}
	}
	// The table and the flag set describe each other exactly: every flag
	// is read by some mode, and every name in a row is a flag.
	fs := flag.NewFlagSet("csrserver", flag.ContinueOnError)
	if _, err := parseFlags(fs, []string{"-dataset", "FB"}); err != nil {
		t.Fatal(err)
	}
	count := 0
	fs.VisitAll(func(f *flag.Flag) {
		count++
		if !slices.ContainsFunc(modes, func(m flagmode.Mode) bool { return m.Reads(f.Name) }) {
			t.Errorf("flag -%s is read by no mode", f.Name)
		}
	})
	if count != 17 {
		t.Errorf("csrserver has %d flags, want 17", count)
	}
	for _, m := range modes {
		for _, name := range strings.Fields(m.Flags) {
			if fs.Lookup(name) == nil {
				t.Errorf("mode table names -%s, which is not a flag", name)
			}
		}
	}
}

// TestKernelTierReported: the ready line names, inside its parenthesis, the
// tier of register tiles the CPU check chose, and /stats carries the same
// name — what the boot's precompute ran on.
func TestKernelTierReported(t *testing.T) {
	logs := captureLog(t)
	srv := serveStack(t, bootArgs(t))
	want := simd.Detected().String()
	ready := regexp.MustCompile(`ready in \S+ \(.* mapped=\w+ kernels=(\w+) peak \d+ bytes VmHWM \d+ bytes\) graph=`).FindStringSubmatch(logs.String())
	if ready == nil {
		t.Fatalf("no ready line naming the kernel tier in:\n%s", logs)
	}
	if ready[1] != want {
		t.Fatalf("ready line says kernels=%s, the CPU check chose %s", ready[1], want)
	}
	if _, body := get(t, srv, "/stats"); body["kernels"] != want {
		t.Fatalf("/stats kernels=%v, want %s", body["kernels"], want)
	}
}

// TestReadyLineCountsFaults: where getrusage counts minor faults the ready
// line carries them, inside its parenthesis before mapped=, as the count
// since exec — at least the pages the boot has touched — and where it does
// not the field is left out rather than printed as 0.
func TestReadyLineCountsFaults(t *testing.T) {
	logs := captureLog(t)
	bootArgs(t)
	line := regexp.MustCompile(`ready in \S+ \(.*\) graph=.*`).FindString(logs.String())
	if line == "" {
		t.Fatalf("no ready line in:\n%s", logs)
	}
	m := regexp.MustCompile(` index_bytes=\d+ faults=(\d+) mapped=`).FindStringSubmatch(line)
	want, ok := minorFaults()
	if !ok {
		if strings.Contains(line, "faults=") {
			t.Fatalf("ready line %q prints faults= on a platform that does not count them", line)
		}
		return
	}
	if m == nil {
		t.Fatalf("ready line %q carries no faults=N before mapped=", line)
	}
	got, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil || got <= 0 || got > want {
		t.Fatalf("ready line says faults=%s; the process has taken %d since exec, and booting touched memory", m[1], want)
	}
}
