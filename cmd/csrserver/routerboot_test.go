package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/graph"
	"csrplus/internal/wire"
)

// lockedBuffer is a log destination safe to read while servers log.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// captureLog sends the standard logger to a buffer for the rest of the test.
func captureLog(t *testing.T) *lockedBuffer {
	t.Helper()
	buf := &lockedBuffer{}
	log.SetOutput(buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return buf
}

// A router serves nothing itself: whether its slots are mapped is what its
// workers say, on the boot line and in /stats, not what the router process
// holds (which is never a mapping).
func TestRouterReportsMappedWorkers(t *testing.T) {
	ix := coreIndex(testEngine(t))
	_, path, err := core.WriteSnapshot(t.TempDir(), ix)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := core.LoadIndex(path) // a shard file maps wherever this does
	if err != nil {
		t.Fatal(err)
	}
	mappable := whole.Mapped()
	whole.Close()
	if !mappable {
		t.Skip("mmap unavailable here: the workers decode")
	}
	root := publishShards(t, ix, 2)
	addrs := wireWorkers(t, root, 2, nil)
	logs := captureLog(t)
	srv := serveStack(t, bootFlags(t, "-shardaddrs", addrs))
	ready := regexp.MustCompile(`ready in \S+ \(source=wire shards=2 .* mapped=(\w+) .*`).FindStringSubmatch(logs.String())
	if ready == nil {
		t.Fatalf("no router ready line in:\n%s", logs)
	}
	if ready[1] != "true" {
		t.Fatalf("router over mapped workers logs mapped=%s: %s", ready[1], ready[0])
	}
	if clocks := regexp.MustCompile(`\) graph=\S+ dial=\S+ prime=\S+ validate=\S+$`); !clocks.MatchString(ready[0]) {
		t.Fatalf("router ready line does not clock dial, prime and validate: %s", ready[0])
	}
	code, body := get(t, srv, "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats code=%d", code)
	}
	for _, sl := range body["shards"].([]interface{}) {
		if m := sl.(map[string]interface{})["mapped"]; m != true {
			t.Fatalf("/stats shard %v reports mapped=%v over a mapped worker", sl, m)
		}
	}
}

// metaCounter counts /shard/meta per worker and, when gated, holds each one
// until every worker has one in flight — which only a concurrent round can
// do — or a second has passed, which it records as a sequential round.
type metaCounter struct {
	calls      [2]atomic.Int64
	gated      atomic.Bool
	inFlight   atomic.Int64
	sequential atomic.Bool
}

func (c *metaCounter) wrap(slot int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/meta" {
			c.calls[slot].Add(1)
			if c.gated.Load() {
				c.inFlight.Add(1)
				deadline := time.Now().Add(time.Second)
				for c.inFlight.Load() < int64(len(c.calls)) {
					if time.Now().After(deadline) {
						c.sequential.Store(true)
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
		h.ServeHTTP(rw, r)
	})
}

func (c *metaCounter) counts() string {
	return fmt.Sprint([]int64{c.calls[0].Load(), c.calls[1].Load()})
}

// A router's boot asks each worker for its metadata once: Dial's answer
// also primes the bound cache. After the workers' generations move, the
// next answer's bound refresh asks each of them once more, all at once.
func TestRouterBootRoundTrips(t *testing.T) {
	var c metaCounter
	addrs := wireWorkers(t, publishShards(t, coreIndex(testEngine(t)), 2), 2, c.wrap)
	srv := serveStack(t, bootFlags(t, "-shardaddrs", addrs))
	if got := c.counts(); got != "[1 1]" {
		t.Fatalf("router boot made %s /shard/meta calls per worker, want [1 1]", got)
	}
	if code, _ := get(t, srv, "/topk?node=1&k=3"); code != http.StatusOK {
		t.Fatalf("/topk code=%d", code)
	}
	if got := c.counts(); got != "[1 1]" {
		t.Fatalf("a query on the boot generations refreshed the bound: %s /shard/meta calls", got)
	}

	for _, addr := range strings.Split(addrs, ",") {
		req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/admin/reload", nil)
		req.Header.Set("Authorization", "Bearer sesame")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("worker reload: HTTP %d", resp.StatusCode)
		}
	}
	c.gated.Store(true)
	if code, _ := get(t, srv, "/topk?node=1&k=3"); code != http.StatusOK {
		t.Fatalf("/topk code=%d", code)
	}
	if got := c.counts(); got != "[2 2]" {
		t.Fatalf("a generation-vector change made %s /shard/meta calls per worker in all, want [2 2]", got)
	}
	if c.sequential.Load() {
		t.Fatal("the bound refresh asked the workers one after another, not in one concurrent round")
	}
}

// One worker that fails its dial fails the router's boot at once: the
// other dials are cancelled, not waited out through their retries.
func TestRouterBootFailsAtFirstBadDial(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprint(rw, `{"n":0}`) // an implausible shape: Dial gives up without retrying
	}))
	defer bad.Close()
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hung.Close()
	defer close(release)

	cfg, err := parse("-shardaddrs", hung.URL+","+bad.URL)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		s, err := boot(context.Background(), cfg)
		if err == nil {
			s.sv.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "implausible shape") {
			t.Fatalf("boot err = %v, want the bad worker's implausible shape", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("boot still waiting on the hung worker 3s after the other dial failed")
	}
	t.Logf("boot failed in %v", time.Since(start))
}

// reloadCounter counts the POST /admin/reload requests each wrapped
// worker receives.
type reloadCounter struct{ calls [3]atomic.Int64 }

func (c *reloadCounter) wrap(slot int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/admin/reload" {
			c.calls[slot].Add(1)
		}
		h.ServeHTTP(rw, r)
	})
}

func (c *reloadCounter) counts() string {
	return fmt.Sprint([]int64{c.calls[0].Load(), c.calls[1].Load(), c.calls[2].Load()})
}

// erCluster publishes an Erdős–Rényi index as the shard directories of
// three workers and returns their root, plus a function that publishes
// slot's cut of the same index for four workers into slot's directory as
// its newest generation: a shard of the wrong shape, which the worker
// refuses.
func erCluster(t *testing.T) (root string, misCut func(slot int)) {
	t.Helper()
	g, err := graph.ErdosRenyi(40, 160, 7)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Precompute(g, core.Options{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	root, four := publishShards(t, ix, 3), publishShards(t, ix, 4)
	return root, func(slot int) {
		t.Helper()
		path, _, err := core.CurrentSnapshot(core.ShardDir(four, slot))
		if err != nil {
			t.Fatal(err)
		}
		bareSnapshot(t, core.ShardDir(root, slot), path, 2)
	}
}

// adminReload POSTs an authorised /admin/reload to base and returns the
// status code.
func adminReload(t *testing.T, base string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, base+"/admin/reload", nil)
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// workerGen reads a worker's slot generation off its /readyz.
func workerGen(t *testing.T, addr string) uint64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready wire.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	return ready.Generation
}

// A worker that refuses a candidate (here a shard cut for another cluster
// size) answers 409: the router asks it once per reload trigger, does not
// charge the refusal to the breaker that also gates its queries, and keeps
// answering from the old generation.
func TestRefusedShardReloadIsOneRequest(t *testing.T) {
	root, misCut := erCluster(t)
	var c reloadCounter
	srv := serveStack(t, bootFlags(t, "-shardaddrs", wireWorkers(t, root, 3, c.wrap), "-admintoken", "sesame"))
	before := rawGet(t, srv, "/topk?node=3&k=5")
	misCut(0)

	for i := 0; i < 2; i++ {
		if code := adminReload(t, srv.URL); code == http.StatusOK {
			t.Fatalf("trigger %d: a roll onto a refused shard answered 200", i)
		}
	}
	if got := c.counts(); got != "[2 0 0]" {
		t.Fatalf("two triggers sent %s POST /admin/reload per worker, want [2 0 0]", got)
	}
	var metrics struct {
		Shards []struct {
			BreakerOpen         bool `json:"breaker_open"`
			ConsecutiveFailures int  `json:"consecutive_failures"`
		} `json:"wire_shards"`
	}
	if err := json.Unmarshal([]byte(rawGet(t, srv, "/metrics")), &metrics); err != nil {
		t.Fatal(err)
	}
	if st := metrics.Shards[0]; st.BreakerOpen || st.ConsecutiveFailures != 0 {
		t.Fatalf("worker 0's refusals charged its breaker: %+v", st)
	}
	if got := rawGet(t, srv, "/topk?node=3&k=5"); got != before {
		t.Fatalf("/topk of a node on shard 0 after the refused roll: %s, want %s", got, before)
	}
}

// A router reload asks each worker once, and a roll that stops at worker 1
// has swapped worker 0 once: nothing re-runs the roll from worker 0.
func TestRouterReloadIsOneRequestPerWorker(t *testing.T) {
	root, misCut := erCluster(t)
	var c reloadCounter
	addrs := wireWorkers(t, root, 3, c.wrap)
	srv := serveStack(t, bootFlags(t, "-shardaddrs", addrs, "-admintoken", "sesame"))
	worker0 := strings.Split(addrs, ",")[0]

	if code := adminReload(t, srv.URL); code != http.StatusOK {
		t.Fatalf("router reload: HTTP %d", code)
	}
	if got := c.counts(); got != "[1 1 1]" {
		t.Fatalf("one router reload sent %s POST /admin/reload per worker, want [1 1 1]", got)
	}
	gen := workerGen(t, worker0)
	misCut(1)
	if code := adminReload(t, srv.URL); code == http.StatusOK {
		t.Fatal("a roll onto worker 1's refused shard answered 200")
	}
	if got := workerGen(t, worker0); got != gen+1 {
		t.Fatalf("a roll that stopped at worker 1 moved worker 0 from generation %d to %d, want %d", gen, got, gen+1)
	}
	if got := c.counts(); got != "[2 2 1]" {
		t.Fatalf("after the stopped roll: %s POST /admin/reload per worker, want [2 2 1]", got)
	}
}
