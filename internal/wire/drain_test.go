package wire

// drain_test.go holds a worker's reload to the RCU rule serve's swap
// follows: a retired shard file is closed once, and only after every call
// pinned to it has returned. The snapshots are mapped, so a close that beat
// the drain would surface as a fault on unmapped pages, a race report or a
// wrong bit. Run with -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/shard"
)

func TestWorkerReloadDrainsBeforeClose(t *testing.T) {
	g, err := graph.ErdosRenyi(160, 800, 9)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Precompute(g, core.Options{Rank: 6})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := shard.PublishSnapshots(root, ix, 2); err != nil {
		t.Fatal(err)
	}
	plan, err := shard.SplitEven(ix.N(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ix.Shard(plan.Range(0)) // the heap factors shard 0's files were written from
	if err != nil {
		t.Fatal(err)
	}

	// Every close, in order, with the slot generation it retired and when;
	// holders counts the in-process readers below pinned to each shard.
	type closed struct {
		f    *core.ShardFile
		gen  uint64
		when time.Time
	}
	var (
		mu      sync.Mutex
		closes  []closed
		holders = map[*core.IndexShard]int{}
		gone    = map[*core.IndexShard]bool{}
		w       *Worker
	)
	defer func(orig func(*core.ShardFile) error) { closeFile = orig }(closeFile)
	closeFile = func(f *core.ShardFile) error {
		mu.Lock()
		if n := holders[f.IndexShard]; n != 0 {
			t.Errorf("generation %d's file closed with %d calls still pinned to it", w.slot.Generation()-1, n)
		}
		gone[f.IndexShard] = true
		closes = append(closes, closed{f, w.slot.Generation() - 1, time.Now()})
		mu.Unlock()
		return f.Close()
	}
	if w, err = BootWorker(WorkerConfig{Shard: 0, SnapshotDir: core.ShardDir(root, 0)}); err != nil {
		t.Fatal(err)
	}
	if !w.Mapped() {
		t.Skip("mmap unavailable here: nothing to unmap early")
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	// post sends one request and reports when it was sent and which
	// generation answered; a non-200 is a failed call.
	post := func(path string, req, resp any) (time.Time, error) {
		body, _ := json.Marshal(req)
		sent := time.Now()
		r, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return sent, err
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return sent, fmt.Errorf("%s: HTTP %d", path, r.StatusCode)
		}
		return sent, json.NewDecoder(r.Body).Decode(resp)
	}
	type answer struct {
		sent time.Time
		gen  uint64
	}
	var answers []answer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []answer
			defer func() {
				mu.Lock()
				answers = append(answers, mine...)
				mu.Unlock()
			}()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := (c*37 + i*13) % ref.Hi()
				uq := append([]float64(nil), ref.URow(q)...)
				rows := []int{(q + 1) % ref.Hi(), (q + 7) % ref.Hi()}
				var gen uint64
				var sent time.Time
				var err error
				switch i % 3 {
				case 0:
					var resp URowsResponse
					if sent, err = post("/shard/urows", URowsRequest{Nodes: []int{q}}, &resp); err == nil {
						gen = resp.Generation
						for j, v := range resp.Rows {
							if math.Float64bits(v) != math.Float64bits(uq[j]) {
								t.Errorf("U row %d col %d = %x, want %x", q, j, v, uq[j])
								return
							}
						}
					}
				case 1:
					var resp QueryResponse
					if sent, err = post("/shard/query", QueryRequest{Queries: []int{q}, UQ: uq, K: 5}, &resp); err == nil {
						gen = resp.Generation
						want, _ := ref.PartialTopK(context.Background(), []int{q}, dense1(uq), 5, 0)
						for j, it := range want {
							if resp.Nodes[j] != it.Node || math.Float64bits(resp.Scores[j]) != math.Float64bits(it.Score) {
								t.Errorf("partial top-k of %d item %d = (%d, %x), want (%d, %x)", q, j, resp.Nodes[j], resp.Scores[j], it.Node, it.Score)
								return
							}
						}
					}
				default:
					var resp ScoresResponse
					if sent, err = post("/shard/scores", ScoresRequest{Queries: []int{q}, UQ: uq, Rows: rows}, &resp); err == nil {
						gen = resp.Generation
						want, _ := ref.ScoreRows(context.Background(), []int{q}, dense1(uq), rows, 0)
						for j, v := range want {
							if math.Float64bits(resp.Scores[j]) != math.Float64bits(v) {
								t.Errorf("score of row %d against %d = %x, want %x", rows[j], q, resp.Scores[j], v)
								return
							}
						}
					}
				}
				if err != nil {
					t.Errorf("call during mapped reloads: %v", err)
					return
				}
				mine = append(mine, answer{sent, gen})
			}
		}(c)
	}

	// Two in-process readers hold each pin across a long read of every U
	// row, so a reload always finds calls in flight: an early close
	// faults here.
	var want float64
	for q := ref.Lo(); q < ref.Hi(); q++ {
		for _, v := range ref.URow(q) {
			want += v
		}
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sh, _, release := w.slot.Pin()
				mu.Lock()
				if gone[sh] {
					t.Error("a call was admitted on a generation whose file is closed")
				}
				holders[sh]++
				mu.Unlock()
				for pass := 0; pass < 200; pass++ {
					var sum float64
					for q := sh.Lo(); q < sh.Hi(); q++ {
						for _, v := range sh.URow(q) {
							sum += v
						}
					}
					if math.Float64bits(sum) != math.Float64bits(want) {
						t.Errorf("U rows of a pinned generation sum to %x, want %x", sum, want)
					}
				}
				mu.Lock()
				holders[sh]--
				mu.Unlock()
				release()
			}
		}()
	}

	const reloads = 6
	retired := make([]*core.ShardFile, 0, reloads)
	for i := 0; i < reloads; i++ {
		time.Sleep(20 * time.Millisecond) // let calls pile up on the serving generation
		if err := shard.PublishSnapshots(root, ix, 2); err != nil {
			t.Fatal(err)
		}
		retired = append(retired, w.file)
		if _, err := w.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		if !w.Mapped() {
			t.Fatalf("reload %d serves a decoded shard", i)
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(closes) != reloads {
		t.Fatalf("%d closes after %d reloads, want one per retired file", len(closes), reloads)
	}
	for i, c := range closes {
		if c.f != retired[i] || c.gen != uint64(i+1) {
			t.Fatalf("close %d released generation %d's file, want generation %d's (each retired file once, in order)", i, c.gen, i+1)
		}
	}
	if w.file == retired[reloads-1] {
		t.Fatal("the serving file is one the reloads retired")
	}
	served := map[uint64]int{}
	for _, a := range answers {
		served[a.gen]++
		for _, c := range closes {
			if a.gen == c.gen && a.sent.After(c.when) {
				t.Fatalf("a call sent after generation %d's file was closed was answered by it", c.gen)
			}
		}
	}
	if len(answers) == 0 || served[reloads+1] == 0 {
		t.Fatalf("answers per generation %v: the hammer never reached the last generation", served)
	}
	t.Logf("%d calls answered across %d mapped generations: %v", len(answers), reloads+1, served)
}

// dense1 shapes one query's U row as the 1 x r broadcast a router sends.
func dense1(u []float64) *dense.Mat { return dense.NewMatFrom(1, len(u), u) }
