package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"csrplus/internal/cache"
	"csrplus/internal/dense"
)

// fakeRanked builds a Ranked engine whose every score reports the rank
// the pass actually ran at — full when asked for 0 or >= fullRank — so
// tests can tell exact answers from degraded ones by value.
func fakeRanked(n, fullRank int) Ranked {
	return Ranked{
		N:     n,
		Rank:  fullRank,
		Bound: func(rank int) float64 { return float64(fullRank - rank) },
		Query: func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			effective := fullRank
			if rank > 0 && rank < fullRank {
				effective = rank
			}
			m := scratch.Reuse(n, len(queries))
			for j := range queries {
				for i := 0; i < n; i++ {
					m.Set(i, j, float64(effective)+float64(i)/float64(2*n))
				}
			}
			return m, nil
		},
	}
}

func TestRankedFullRankByDefault(t *testing.T) {
	sv := NewRanked(fakeRanked(16, 8), Config{Linger: -1, Degrade: DegradeConfig{Rank: 2}})
	defer sv.Close()
	res, err := sv.Search(context.Background(), []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Degraded || res.Info.EffectiveRank != 0 || res.Info.FullRank != 8 || res.Info.ErrorBound != 0 {
		t.Fatalf("unpressured request degraded: %+v", res.Info)
	}
	if int(res.Matches[0].Score) != 8 {
		t.Fatalf("score %v did not come from a full-rank pass", res.Matches[0].Score)
	}
	if sv.Metrics().Degraded() != 0 || sv.Metrics().DegradedBatches() != 0 {
		t.Fatalf("degraded counters moved: %d/%d", sv.Metrics().Degraded(), sv.Metrics().DegradedBatches())
	}
}

// A request admitted with less deadline budget than MinBudget must be
// answered at the truncated rank and tagged with rank + error bound.
func TestDegradeOnDeadlineBudget(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		sv := NewRanked(kind(fakeRanked(16, 8)), Config{
			Linger:  -1,
			Degrade: DegradeConfig{Rank: 2, MinBudget: time.Hour},
		})
		defer sv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err := sv.Search(ctx, []int{3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Info.Degraded || res.Info.EffectiveRank != 2 || res.Info.FullRank != 8 {
			t.Fatalf("info = %+v, want degraded at rank 2 of 8", res.Info)
		}
		if res.Info.ErrorBound != 6 {
			t.Fatalf("error bound = %v, want engine's advertised 6", res.Info.ErrorBound)
		}
		if int(res.Matches[0].Score) != 2 {
			t.Fatalf("score %v did not come from a rank-2 pass", res.Matches[0].Score)
		}
		if sv.Metrics().Degraded() != 1 || sv.Metrics().DegradedBatches() != 1 {
			t.Fatalf("degraded counters: %d/%d", sv.Metrics().Degraded(), sv.Metrics().DegradedBatches())
		}
		pr, err := sv.Score(ctx, []int{3}, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Info.Degraded || len(pr.Pairs) != 2 {
			t.Fatalf("Score under budget pressure: %+v", pr)
		}
	})
}

// A top-k score sums |Q| entries of S, so a truncated answer may sit |Q|
// entrywise bounds from the full-rank one. fakeRanked attains its
// advertised bound on every entry (each score is off by exactly
// fullRank - rank), which makes the aggregate sit exactly |Q| bounds away:
// an error_bound that charged the entrywise bound once would be violated
// by every multi-source answer here. Pair scores are single entries and
// keep the bound as it is.
func TestDegradedBoundCoversMultiSourceAggregate(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		const n, fullRank, rank = 40, 8, 2
		exact := NewRanked(kind(fakeRanked(n, fullRank)), Config{Linger: -1})
		defer exact.Close()
		sv := NewRanked(kind(fakeRanked(n, fullRank)), Config{
			Linger:  -1,
			Degrade: DegradeConfig{Rank: rank, MinBudget: time.Hour},
		})
		defer sv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, q := range []int{1, 3, 16} {
			queries := make([]int, q)
			for i := range queries {
				queries[i] = 2 * i
			}
			full, err := exact.Search(context.Background(), queries, 5)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sv.Search(ctx, queries, 5)
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(q * (fullRank - rank)); res.Info.ErrorBound != want {
				t.Fatalf("|Q|=%d: error bound %v, want |Q| x the entrywise %d = %v", q, res.Info.ErrorBound, fullRank-rank, want)
			}
			for i, m := range res.Matches {
				if m.Node != full.Matches[i].Node {
					t.Fatalf("|Q|=%d: match %d is node %d, exact ranking has %d", q, i, m.Node, full.Matches[i].Node)
				}
				if d := full.Matches[i].Score - m.Score; d > res.Info.ErrorBound+1e-9 { // rounding of the fake's scores
					t.Fatalf("|Q|=%d node %d: served %v, exact %v: off by %v, advertised bound %v", q, m.Node, m.Score, full.Matches[i].Score, d, res.Info.ErrorBound)
				}
			}
			pr, err := sv.Score(ctx, queries, []int{1})
			if err != nil {
				t.Fatal(err)
			}
			if pr.Info.ErrorBound != fullRank-rank {
				t.Fatalf("|Q|=%d: pair-score bound %v, want the entrywise %d", q, pr.Info.ErrorBound, fullRank-rank)
			}
		}
	})
}

// Degradation must not arm when the configured rank is not a real
// truncation of the engine's rank, or the backend has no rank at all.
func TestDegradeDisabledWithoutRankStructure(t *testing.T) {
	ctxShort, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	sv := NewRanked(fakeRanked(16, 8), Config{
		Linger:  -1,
		Degrade: DegradeConfig{Rank: 8, MinBudget: time.Hour}, // rank >= full: nothing to truncate
	})
	defer sv.Close()
	res, err := sv.Search(ctxShort, []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Degraded {
		t.Fatalf("degraded with nothing to truncate: %+v", res.Info)
	}

	unranked := NewRanked(plain(16, func(queries []int) ([][]float64, error) {
		cols := make([][]float64, len(queries))
		for j := range cols {
			cols[j] = make([]float64, 16)
		}
		return cols, nil
	}), Config{Linger: -1, Degrade: DegradeConfig{Rank: 2, MinBudget: time.Hour}})
	defer unranked.Close()
	res, err = unranked.Search(ctxShort, []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Degraded || res.Info.FullRank != 0 {
		t.Fatalf("plain backend reported rank structure: %+v", res.Info)
	}
}

// Degraded results must never enter the cache: the next unpressured
// request recomputes at full rank rather than inheriting a cheap answer.
func TestDegradedResultsAreNotCached(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		sv := NewRanked(kind(fakeRanked(16, 8)), Config{
			Linger:  -1,
			Cache:   cache.New(8),
			Degrade: DegradeConfig{Rank: 2, MinBudget: time.Hour},
		})
		defer sv.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err := sv.Search(ctx, []int{3}, 2)
		if err != nil || !res.Info.Degraded {
			t.Fatalf("degraded search: %+v, %v", res.Info, err)
		}

		res, err = sv.Search(context.Background(), []int{3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("full-rank request served the degraded request's cache entry")
		}
		if res.Info.Degraded || int(res.Matches[0].Score) != 8 {
			t.Fatalf("recomputation not full rank: %+v score=%v", res.Info, res.Matches[0].Score)
		}

		// The full-rank result is cacheable as usual.
		res, err = sv.Search(context.Background(), []int{3}, 2)
		if err != nil || !res.Cached {
			t.Fatalf("full-rank result not cached: %+v, %v", res, err)
		}
	})
}

// overloaded() is the batch-level pressure trigger: queue depth past the
// threshold, or any shed since the last batch.
func TestBatcherOverloadSignal(t *testing.T) {
	m := NewMetrics()
	b := newBatcher(engine{columns: func(context.Context, []int, int) ([][]float64, error) { return nil, nil }},
		1, 0, 4, 1, false, m, 2, 3)
	defer b.Close()

	if b.overloaded() {
		t.Fatal("fresh batcher reports overload")
	}
	m.queueDepth.Store(4) // past the depth threshold of 3
	if !b.overloaded() {
		t.Fatal("queue depth 4 > 3 not seen as overload")
	}
	m.queueDepth.Store(0)
	m.shed.Add(1) // shed since last check: hard pressure
	if !b.overloaded() {
		t.Fatal("fresh shed not seen as overload")
	}
	if b.overloaded() {
		t.Fatal("stale shed still counts as overload")
	}

	off := newBatcher(engine{columns: func(context.Context, []int, int) ([][]float64, error) { return nil, nil }},
		1, 0, 4, 1, false, m, 0, 0)
	defer off.Close()
	m.queueDepth.Store(100)
	if off.overloaded() {
		t.Fatal("degradation-disabled batcher reports overload")
	}
	m.queueDepth.Store(0)
}

// A batch whose every caller has gone away must cancel the engine pass
// mid-flight, releasing the pool worker.
func TestBatchContextCancelsAbandonedPass(t *testing.T) {
	engineCancelled := make(chan struct{})
	e := Ranked{
		N:    8,
		Rank: 4,
		Query: func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
			select {
			case <-ctx.Done():
				close(engineCancelled)
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return nil, errors.New("engine pass never cancelled")
			}
		},
	}
	sv := NewRanked(e, Config{Linger: -1, Workers: 1})
	defer sv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sv.Search(ctx, []int{1}, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	select {
	case <-engineCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("engine pass kept running after its last caller left")
	}
}

// Co-batched callers with independent contexts: the batch survives one
// caller leaving and still answers the other.
func TestBatchContextSurvivesPartialAbandonment(t *testing.T) {
	release := make(chan struct{})
	e := Ranked{
		N:    8,
		Rank: 4,
		Query: func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
			}
			m := scratch.Reuse(8, len(queries))
			for j := range queries {
				for i := 0; i < 8; i++ {
					m.Set(i, j, 1)
				}
			}
			return m, nil
		},
	}
	// One worker and strict linger force both requests into one batch.
	sv := NewRanked(e, Config{Linger: 50 * time.Millisecond, Workers: 1, StrictLinger: true, MaxBatch: 2})
	defer sv.Close()

	shortCtx, shortCancel := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() {
		_, err := sv.Search(shortCtx, []int{1}, 2)
		errs <- err
	}()
	go func() {
		_, err := sv.Search(context.Background(), []int{2}, 2)
		errs <- err
	}()
	time.Sleep(100 * time.Millisecond) // both co-batched, engine blocked on release
	shortCancel()                      // first caller leaves; batch must keep going
	select {
	case err := <-errs:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoning caller got %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoning caller never returned")
	}
	close(release)
	select {
	case err := <-errs:
		if err != nil {
			t.Fatalf("surviving caller: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("surviving caller never answered")
	}
}

// TestDriftTaintsAnswers: a generation with a Drift func composes the
// live drift bound into every answer — including cache hits, which must
// report drift as of NOW, not as of the entry's insert — and an
// exhausted drift budget marks answers Degraded even at full rank.
func TestDriftTaintsAnswers(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		var bound float64
		var exceeded bool
		e := fakeRanked(16, 8)
		e.Drift = func() (float64, bool) { return bound, exceeded }
		sv := NewRanked(kind(e), Config{Linger: -1, Cache: cache.New(8)})
		defer sv.Close()

		res, err := sv.Search(context.Background(), []int{3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Info.Degraded || res.Info.DriftBound != 0 || res.Info.ErrorBound != 0 {
			t.Fatalf("zero drift tainted the answer: %+v", res.Info)
		}

		bound = 0.25
		res, err = sv.Search(context.Background(), []int{3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatal("second identical search missed the cache")
		}
		if res.Info.DriftBound != 0.25 || res.Info.ErrorBound != 0.25 {
			t.Fatalf("cache hit not tagged with live drift: %+v", res.Info)
		}
		if res.Info.Degraded {
			t.Fatalf("drift inside budget marked degraded: %+v", res.Info)
		}

		exceeded = true
		res, err = sv.Search(context.Background(), []int{3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Info.Degraded || res.Info.DriftBound != 0.25 {
			t.Fatalf("exhausted drift budget not surfaced: %+v", res.Info)
		}

		pr, err := sv.Score(context.Background(), []int{3}, []int{5})
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Info.Degraded || pr.Info.DriftBound != 0.25 || pr.Info.ErrorBound != 0.25 {
			t.Fatalf("score path not tainted: %+v", pr.Info)
		}
	})
}

// Queue depth past QueueFraction x MaxPending is pressure on the
// generation, whichever engine call its workers make: with the one
// worker held, requests piling up behind it are answered truncated once
// the worker reaches them.
func TestDegradeOnQueueDepth(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		gate := make(chan struct{})
		e := fakeRanked(16, 8)
		query := e.Query
		e.Query = func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
			<-gate
			return query(ctx, queries, rank, scratch)
		}
		sv := NewRanked(kind(e), Config{
			Linger: -1, MaxBatch: 1, Workers: 1, MaxPending: 8,
			Degrade: DegradeConfig{Rank: 2, QueueFraction: 0.25}, // pressure past depth 2
		})
		defer sv.Close()

		const clients = 5
		results := make(chan SearchResult, clients)
		for i := 0; i < clients; i++ {
			go func(node int) {
				res, err := sv.Search(context.Background(), []int{node}, 2)
				if err != nil {
					t.Error(err)
				}
				results <- res
			}(i)
			waitFor(t, func() bool { return sv.Metrics().Admitted() == int64(i+1) })
		}
		close(gate)
		degraded := 0
		for i := 0; i < clients; i++ {
			res := <-results
			if !res.Info.Degraded {
				continue
			}
			degraded++
			if res.Info.EffectiveRank != 2 || res.Info.ErrorBound != 6 || int(res.Matches[0].Score) != 2 {
				t.Fatalf("degraded answer not a tagged rank-2 pass: %+v score=%v", res.Info, res.Matches[0].Score)
			}
		}
		// The first request reached the worker at depth 1 and the last two
		// were answered with the queue back under the threshold.
		if degraded == 0 || degraded == clients {
			t.Fatalf("%d of %d queued requests degraded, want only those answered past depth 2", degraded, clients)
		}
		if got := sv.Metrics().DegradedBatches(); got != int64(degraded) {
			t.Fatalf("degraded batches = %d, want %d", got, degraded)
		}
	})
}

// A direct top-k merged without some shards is a degraded answer: tagged
// with the missing-shard count, its bound the sum of truncation, drift
// and the missing shards' inflation, and never cached — it must not
// outlive the outage.
func TestMissingShardsTaintAnswers(t *testing.T) {
	prov := TopKProvenance{MissingShards: 1, ErrorBound: 0.5}
	e := fakeRanked(16, 8)
	e.Drift = func() (float64, bool) { return 0.25, false }
	sv := NewRanked(direct(e, prov), Config{
		Linger:  -1,
		Cache:   cache.New(8),
		Degrade: DegradeConfig{Rank: 2, MinBudget: time.Hour},
	})
	defer sv.Close()

	for i := 0; i < 2; i++ { // the second ask must not be a cache hit
		res, err := sv.Search(context.Background(), []int{3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("missing-shard answer was cached")
		}
		want := QueryInfo{Degraded: true, FullRank: 8, MissingShards: 1, DriftBound: 0.25, ErrorBound: 0.25 + 0.5}
		if res.Info != want {
			t.Fatalf("info = %+v, want %+v", res.Info, want)
		}
	}
	if got := sv.Metrics().Degraded(); got != 2 {
		t.Fatalf("requests_degraded = %d, want 2", got)
	}

	// Under deadline pressure the truncation bound joins the sum.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := sv.Search(ctx, []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := QueryInfo{Degraded: true, EffectiveRank: 2, FullRank: 8, MissingShards: 1, DriftBound: 0.25, ErrorBound: 6 + 0.25 + 0.5}
	if res.Info != want {
		t.Fatalf("info = %+v, want %+v", res.Info, want)
	}
}
