package serve

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/topk"
)

// columnsFunc is a test engine's multi-source pass: cols[j] is the full
// similarity column of queries[j].
type columnsFunc func(queries []int) ([][]float64, error)

// plain wraps a column func with no rank structure as a Query-only
// generation, checking the context once at the engine boundary.
func plain(n int, queryFn columnsFunc) Ranked {
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

// direct hands the server a generation that brings its own TopK and
// Scores, answering from e's columns, with no Query left; top-k answers
// carry prov.
func direct(e Ranked, prov TopKProvenance) Ranked {
	d := e.Direct()
	d.Query = nil
	topK := d.TopK
	d.TopK = func(ctx context.Context, queries []int, k, rank int) ([]topk.Item, TopKProvenance, error) {
		items, _, err := topK(ctx, queries, k, rank)
		return items, prov, err
	}
	return d
}

// eachEngine runs a suite over both ways a generation arrives: "column"
// installs a Query-only generation, which the server adapts through
// Ranked.Direct (csrload's probe), and "direct" one whose TopK and Scores
// are already set (csrserver's). Everything around the engine call is
// shared, so every assertion must hold for both.
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
	s := newTestServer(t, eng, Config{})
	res, err := s.Search(context.Background(), []int{2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	matches := res.Matches
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
	s := newTestServer(t, eng, Config{})
	res, err := s.Search(context.Background(), []int{1, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	matches := res.Matches
	// Aggregate similarity peaks at 2 and 3 once the query nodes
	// themselves are excluded.
	if len(matches) != 2 || matches[0].Node != 2 || matches[1].Node != 3 {
		t.Fatalf("matches = %v, want nodes [2 3]", matches)
	}
}

func TestServerTopKClampsKToN(t *testing.T) {
	eng := &rankEngine{n: 6}
	s := newTestServer(t, eng, Config{MaxK: 100})
	res, err := s.Search(context.Background(), []int{0}, 50)
	if err != nil {
		t.Fatalf("k above n should clamp, got %v", err)
	}
	if len(res.Matches) != 5 { // n-1: every node except the query itself
		t.Fatalf("got %d matches, want 5", len(res.Matches))
	}
}

func TestServerValidation(t *testing.T) {
	eng := &rankEngine{n: 6}
	s := newTestServer(t, eng, Config{MaxK: 10})
	ctx := context.Background()
	cases := []func() error{
		func() error { _, err := s.Search(ctx, nil, 3); return err },
		func() error { _, err := s.Search(ctx, []int{99}, 3); return err },
		func() error { _, err := s.Search(ctx, []int{-1}, 3); return err },
		func() error { _, err := s.Search(ctx, []int{1}, 0); return err },
		func() error { _, err := s.Search(ctx, []int{1}, 11); return err }, // beyond MaxK
		func() error { _, err := s.Score(ctx, []int{1}, nil); return err },
		func() error { _, err := s.Score(ctx, []int{1}, []int{99}); return err },
		func() error { _, err := s.Score(ctx, []int{99}, []int{1}); return err },
		func() error { _, err := s.Score(ctx, make([]int, 1025), make([]int, 1024)); return err }, // one pair past maxScorePairs
		func() error { _, err := s.Search(ctx, make([]int, MaxQueryNodes+1), 3); return err },     // one node past MaxQueryNodes
		func() error { _, err := s.Score(ctx, make([]int, MaxQueryNodes+1), []int{1}); return err },
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
	// A query set at the cap is answered.
	if _, err := s.Search(ctx, make([]int, MaxQueryNodes), 3); err != nil {
		t.Fatalf("%d query nodes: %v", MaxQueryNodes, err)
	}
	if _, err := s.Score(ctx, make([]int, MaxQueryNodes), []int{1}); err != nil {
		t.Fatalf("%d query nodes: %v", MaxQueryNodes, err)
	}
}

func TestServerSimilarityPairs(t *testing.T) {
	eng := &rankEngine{n: 6}
	s := newTestServer(t, eng, Config{})
	res, err := s.Score(context.Background(), []int{2}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	pairs := res.Pairs
	if len(pairs) != 2 || pairs[0].Score != 1 || pairs[1].Score != 0.5 {
		t.Fatalf("pairs = %v", pairs)
	}
}

// Nothing is memoised: every request is its own engine call, and a repeat
// of a request on the same generation is answered the same.
func TestServerAnswersEveryRequest(t *testing.T) {
	eng := &rankEngine{n: 6}
	s := newTestServer(t, eng, Config{})
	first, err := s.Search(context.Background(), []int{1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		again, err := s.Search(context.Background(), []int{1}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("repeat answered %+v, first %+v", again, first)
		}
	}
	if got := eng.calls.Load(); got != 3 {
		t.Fatalf("engine called %d times for 3 requests", got)
	}
}

func TestServerTimeout(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		eng := &rankEngine{n: 6, delay: 50 * time.Millisecond}
		s := NewRanked(kind(plain(eng.n, eng.query)), Config{Timeout: 5 * time.Millisecond})
		defer s.Close()
		_, err := s.Search(context.Background(), []int{1}, 3)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
	})
}

func TestServerClose(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		eng := &rankEngine{n: 6}
		s := NewRanked(kind(plain(eng.n, eng.query)), Config{})
		if _, err := s.Search(context.Background(), []int{1}, 3); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if _, err := s.Search(context.Background(), []int{1}, 3); !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
		s.Close() // idempotent
	})
}

// Admission is the generation's, not the engine's: with the one worker
// held and the queue bounded at one, a request past what the worker and
// the queue can hold is shed — whichever engine call the worker is stuck
// in.
func TestServerOverload(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		gate := make(chan struct{})
		eng := &fakeEngine{n: 8, gate: gate}
		s := NewRanked(kind(plain(eng.n, eng.query)), Config{MaxPending: 1, Workers: 1})
		defer s.Close()
		m := s.Metrics()

		results := make(chan error, 4)
		for i := 0; i < 4 && m.Shed() == 0; i++ {
			admitted, shed := m.Admitted(), m.Shed()
			go func(node int) {
				_, err := s.Search(context.Background(), []int{node}, 2)
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

// A request adapted onto Query may not size an n x |Q| block past
// maxColumnBlockBytes: Direct refuses it before the column pass — whose
// first act is to allocate that block — is reached, whether the columns are
// wanted for scores or for a top-k. A generation's own Scores materialises
// no block and is not held to the budget.
func TestServerColumnBlockBudget(t *testing.T) {
	const n = 1 << 20 // 8 MiB a column: 32 fill the budget, 33 exceed it
	var reached atomic.Int64
	e := Ranked{N: n, Query: func(_ context.Context, queries []int, _ int, scratch *dense.Mat) (*dense.Mat, error) {
		reached.Add(1)
		return scratch.Reuse(n, len(queries)), nil
	}}
	s := NewRanked(e, Config{})
	defer s.Close()
	ctx := context.Background()
	nodes := make([]int, 33)
	for i := range nodes {
		nodes[i] = i
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.Score(ctx, nodes, []int{1})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("264 MiB of columns for scores: err = %v, want ErrBadRequest", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("the refused request allocated %d bytes", grew)
	}
	if _, err := s.Search(ctx, nodes, 3); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("264 MiB of columns for a top-k: err = %v, want ErrBadRequest", err)
	}
	if reached.Load() != 0 {
		t.Fatalf("over-budget requests reached the engine %d times", reached.Load())
	}

	e.Scores = func(_ context.Context, queries, targets []int, _ int) (*dense.Mat, error) {
		return dense.NewMat(len(queries), len(targets)), nil
	}
	s.SwapRanked(e)
	if _, err := s.Score(ctx, nodes, []int{1}); err != nil {
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
	s := NewRanked(e, Config{})
	defer s.Close()
	if _, err := s.Search(context.Background(), []int{1}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Score(context.Background(), []int{1}, []int{2}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
}
