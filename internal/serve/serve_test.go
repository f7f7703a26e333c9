package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csrplus/internal/cache"
	"csrplus/internal/dense"
	"csrplus/internal/topk"
)

// plain wraps a column func with no rank structure as a generation: the
// columns are laid into the scratch matrix the batcher hands out, and
// the context is checked once at the engine boundary.
func plain(n int, queryFn QueryFunc) Ranked {
	return Ranked{N: n, Query: func(ctx context.Context, queries []int, _ int, scratch *dense.Mat) (*dense.Mat, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cols, err := queryFn(queries)
		if err != nil {
			return nil, err
		}
		m := scratch.Reuse(n, len(queries))
		for j, col := range cols {
			for i, v := range col {
				m.Set(i, j, v)
			}
		}
		return m, nil
	}}
}

// direct turns a column generation into a direct one answering from the
// same columns: TopK selects out of them, Scores reads them, and no
// column path is left. Top-k answers carry prov.
func direct(e Ranked, prov TopKProvenance) Ranked {
	columns := func(ctx context.Context, queries []int, rank int) (map[int][]float64, error) {
		m, err := e.Query(ctx, queries, rank, nil)
		if err != nil {
			return nil, err
		}
		cols := make(map[int][]float64, len(queries))
		for j, q := range queries {
			cols[q] = m.Col(j, nil)
		}
		return cols, nil
	}
	d := e
	d.Query = nil
	d.TopK = func(ctx context.Context, queries []int, k, rank int) ([]topk.Item, TopKProvenance, error) {
		cols, err := columns(ctx, queries, rank)
		if err != nil {
			return nil, TopKProvenance{}, err
		}
		matches := selectTopK(cols, queries, k)
		items := make([]topk.Item, len(matches))
		for i, m := range matches {
			items[i] = topk.Item{Node: m.Node, Score: m.Score}
		}
		return items, prov, nil
	}
	d.Scores = func(ctx context.Context, queries, targets []int, rank int) (*dense.Mat, error) {
		cols, err := columns(ctx, queries, rank)
		if err != nil {
			return nil, err
		}
		m := dense.NewMat(len(queries), len(targets))
		for qi, q := range queries {
			for ti, t := range targets {
				m.Set(qi, ti, cols[q][t])
			}
		}
		return m, nil
	}
	return d
}

// eachEngine runs a suite over both engine kinds: kind leaves a column
// generation as it is, or rebuilds it as the direct generation answering
// from the same columns. Everything around the engine call is shared, so
// every assertion must hold for both.
func eachEngine(t *testing.T, suite func(t *testing.T, kind func(Ranked) Ranked)) {
	t.Run("column", func(t *testing.T) { suite(t, func(e Ranked) Ranked { return e }) })
	t.Run("direct", func(t *testing.T) {
		suite(t, func(e Ranked) Ranked { return direct(e, TopKProvenance{}) })
	})
}

// rankEngine serves columns with a distinct, known ranking: the column of
// node q scores node i as 1/(1+|i-q|), so nearer ids are more similar.
type rankEngine struct {
	n     int
	calls atomic.Int64
	delay time.Duration
}

func (e *rankEngine) query(queries []int) ([][]float64, error) {
	e.calls.Add(1)
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	out := make([][]float64, len(queries))
	for j, q := range queries {
		col := make([]float64, e.n)
		for i := range col {
			d := i - q
			if d < 0 {
				d = -d
			}
			col[i] = 1 / float64(1+d)
		}
		out[j] = col
	}
	return out, nil
}

func newTestServer(t *testing.T, eng *rankEngine, cfg Config) *Server {
	t.Helper()
	s := NewRanked(plain(eng.n, eng.query), cfg)
	t.Cleanup(s.Close)
	return s
}

func TestServerTopKSingle(t *testing.T) {
	eng := &rankEngine{n: 6}
	s := newTestServer(t, eng, Config{Linger: -1})
	matches, cached, err := s.TopK(context.Background(), []int{2}, 3)
	if err != nil || cached {
		t.Fatalf("err=%v cached=%v", err, cached)
	}
	want := []int{1, 3, 0} // 0.5, 0.5 (tie -> smaller id), 1/3
	if len(matches) != 3 {
		t.Fatalf("matches = %v", matches)
	}
	for i, w := range want {
		if matches[i].Node != w {
			t.Fatalf("matches = %v, want nodes %v", matches, want)
		}
	}
}

func TestServerTopKMultiAggregates(t *testing.T) {
	eng := &rankEngine{n: 6}
	s := newTestServer(t, eng, Config{Linger: -1})
	matches, _, err := s.TopK(context.Background(), []int{1, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate similarity peaks at 2 and 3 once the query nodes
	// themselves are excluded.
	if len(matches) != 2 || matches[0].Node != 2 || matches[1].Node != 3 {
		t.Fatalf("matches = %v, want nodes [2 3]", matches)
	}
}

func TestServerTopKClampsKToN(t *testing.T) {
	eng := &rankEngine{n: 6}
	s := newTestServer(t, eng, Config{Linger: -1, MaxK: 100})
	matches, _, err := s.TopK(context.Background(), []int{0}, 50)
	if err != nil {
		t.Fatalf("k above n should clamp, got %v", err)
	}
	if len(matches) != 5 { // n-1: every node except the query itself
		t.Fatalf("got %d matches, want 5", len(matches))
	}
}

func TestServerValidation(t *testing.T) {
	eng := &rankEngine{n: 6}
	s := newTestServer(t, eng, Config{Linger: -1, MaxK: 10})
	ctx := context.Background()
	cases := []func() error{
		func() error { _, _, err := s.TopK(ctx, nil, 3); return err },
		func() error { _, _, err := s.TopK(ctx, []int{99}, 3); return err },
		func() error { _, _, err := s.TopK(ctx, []int{-1}, 3); return err },
		func() error { _, _, err := s.TopK(ctx, []int{1}, 0); return err },
		func() error { _, _, err := s.TopK(ctx, []int{1}, 11); return err }, // beyond MaxK
		func() error { _, err := s.Similarity(ctx, []int{1}, nil); return err },
		func() error { _, err := s.Similarity(ctx, []int{1}, []int{99}); return err },
		func() error { _, err := s.Similarity(ctx, []int{99}, []int{1}); return err },
		func() error { _, err := s.Similarity(ctx, make([]int, 1025), make([]int, 1024)); return err }, // one pair past maxScorePairs
	}
	for i, call := range cases {
		if err := call(); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("case %d: err = %v, want ErrBadRequest", i, err)
		}
	}
	if eng.calls.Load() != 0 {
		t.Fatalf("invalid requests reached the engine %d times", eng.calls.Load())
	}
	if got := s.Metrics().Snapshot()["requests_rejected"].(int64); got != int64(len(cases)) {
		t.Fatalf("rejected = %d, want %d", got, len(cases))
	}
}

func TestServerSimilarityPairs(t *testing.T) {
	eng := &rankEngine{n: 6}
	s := newTestServer(t, eng, Config{Linger: -1})
	pairs, err := s.Similarity(context.Background(), []int{2}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || pairs[0].Score != 1 || pairs[1].Score != 0.5 {
		t.Fatalf("pairs = %v", pairs)
	}
}

// TestServerCoalescing is the ISSUE's acceptance test: N concurrent
// single-node requests must produce strictly fewer than N engine calls.
func TestServerCoalescing(t *testing.T) {
	// The 1ms engine keeps both workers busy so concurrent arrivals
	// coalesce rather than each flushing to an idle worker.
	eng := &rankEngine{n: 64, delay: time.Millisecond}
	s := newTestServer(t, eng, Config{MaxBatch: 64, Linger: 20 * time.Millisecond, Workers: 2})

	const clients = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, _, err := s.TopK(context.Background(), []int{i}, 5); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if calls := eng.calls.Load(); calls >= clients {
		t.Fatalf("%d engine calls for %d concurrent requests; batching is off", calls, clients)
	}
	snap := s.Metrics().Snapshot()
	if snap["mean_batch_occupancy"].(float64) <= 1 {
		t.Fatalf("mean batch occupancy %v, want > 1", snap["mean_batch_occupancy"])
	}
}

func TestServerCacheInstrumented(t *testing.T) {
	eng := &rankEngine{n: 6}
	lru := cache.New(8)
	s := newTestServer(t, eng, Config{Linger: -1, Cache: lru})

	if _, cached, err := s.TopK(context.Background(), []int{1}, 3); err != nil || cached {
		t.Fatalf("first call: cached=%v err=%v", cached, err)
	}
	m1, _, err := s.TopK(context.Background(), []int{1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, cached, err := s.TopK(context.Background(), []int{1}, 3)
	if err != nil || !cached {
		t.Fatalf("repeat call not cached: cached=%v err=%v", cached, err)
	}
	if eng.calls.Load() != 1 {
		t.Fatalf("engine called %d times, want 1", eng.calls.Load())
	}
	if len(m1) != 3 {
		t.Fatalf("cached matches = %v", m1)
	}
	// Cache events flowed into the serving metrics via cache.Recorder.
	snap := s.Metrics().Snapshot()
	if snap["cache_hits"].(int64) < 1 || snap["cache_misses"].(int64) < 1 {
		t.Fatalf("cache not instrumented: %v", snap)
	}
	if snap["cache_hit_ratio"].(float64) <= 0 {
		t.Fatalf("hit ratio %v", snap["cache_hit_ratio"])
	}
}

func TestServerTimeout(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		eng := &rankEngine{n: 6, delay: 50 * time.Millisecond}
		s := NewRanked(kind(plain(eng.n, eng.query)), Config{Linger: -1, Timeout: 5 * time.Millisecond})
		defer s.Close()
		_, _, err := s.TopK(context.Background(), []int{1}, 3)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
	})
}

func TestServerClose(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		eng := &rankEngine{n: 6}
		s := NewRanked(kind(plain(eng.n, eng.query)), Config{Linger: -1})
		if _, _, err := s.TopK(context.Background(), []int{1}, 3); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if _, _, err := s.TopK(context.Background(), []int{1}, 3); !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
		s.Close() // idempotent
	})
}

// Admission is the generation's, not the engine's: with the one worker
// held and the queue bounded at one, a request past what the worker, the
// dispatch loop and the queue can hold is shed — whichever engine call
// the worker is stuck in.
func TestServerOverload(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		gate := make(chan struct{})
		eng := &fakeEngine{n: 8, gate: gate}
		s := NewRanked(kind(plain(eng.n, eng.query)), Config{Linger: -1, MaxBatch: 1, MaxPending: 1, Workers: 1})
		defer s.Close()
		m := s.Metrics()

		results := make(chan error, 4)
		for i := 0; i < 4 && m.Shed() == 0; i++ {
			admitted, shed := m.Admitted(), m.Shed()
			go func(node int) {
				_, _, err := s.TopK(context.Background(), []int{node}, 2)
				results <- err
			}(i)
			waitFor(t, func() bool { return m.Admitted() > admitted || m.Shed() > shed })
		}
		if m.Shed() == 0 {
			t.Fatal("requests beyond capacity were never shed")
		}
		if got := m.Snapshot()["requests_shed"].(int64); got != m.Shed() {
			t.Fatalf("requests_shed = %d, want %d", got, m.Shed())
		}
		for i := int64(0); i < m.Shed(); i++ {
			if err := <-results; !errors.Is(err, ErrOverloaded) {
				t.Fatalf("shed request err = %v, want ErrOverloaded", err)
			}
		}
		close(gate)
		for i := int64(0); i < m.Admitted(); i++ {
			if err := <-results; err != nil {
				t.Fatalf("admitted request: %v", err)
			}
		}
	})
}

// One column request may not size an n x |Q| block past
// maxColumnBlockBytes by itself: it is refused before the engine — whose
// first act is to allocate that block — is reached, whether the columns are
// wanted for scores or for a top-k. A direct engine call materialises no
// block and is not held to the budget.
func TestServerColumnBlockBudget(t *testing.T) {
	const n = 1 << 20 // 8 MiB a column: 32 fill the budget, 33 exceed it
	var reached atomic.Int64
	e := Ranked{N: n, Query: func(_ context.Context, queries []int, _ int, scratch *dense.Mat) (*dense.Mat, error) {
		reached.Add(1)
		return scratch.Reuse(n, len(queries)), nil
	}}
	s := NewRanked(e, Config{Linger: -1})
	defer s.Close()
	ctx := context.Background()
	nodes := make([]int, 33)
	for i := range nodes {
		nodes[i] = i
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.Similarity(ctx, nodes, []int{1})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("264 MiB of columns for scores: err = %v, want ErrBadRequest", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("the refused request allocated %d bytes", grew)
	}
	if _, _, err := s.TopK(ctx, nodes, 3); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("264 MiB of columns for a top-k: err = %v, want ErrBadRequest", err)
	}
	if reached.Load() != 0 {
		t.Fatalf("over-budget requests reached the engine %d times", reached.Load())
	}

	e.Scores = func(_ context.Context, queries, targets []int, _ int) (*dense.Mat, error) {
		return dense.NewMat(len(queries), len(targets)), nil
	}
	s.SwapRanked(e)
	if _, err := s.Similarity(ctx, nodes, []int{1}); err != nil {
		t.Fatalf("the same request on a direct engine: %v", err)
	}
}

// A generation is refused a request only when none of its engine calls
// can answer it: a top-k-only generation has nothing to read targeted
// scores out of.
func TestServerNoEngineForRequest(t *testing.T) {
	eng := &rankEngine{n: 6}
	e := direct(plain(eng.n, eng.query), TopKProvenance{})
	e.Scores = nil
	s := NewRanked(e, Config{Linger: -1})
	defer s.Close()
	if _, _, err := s.TopK(context.Background(), []int{1}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Similarity(context.Background(), []int{1}, []int{2}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
}
