package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"csrplus/internal/dense"
)

// fakeRanked builds a Ranked engine whose every score reports the rank
// the pass actually ran at — full when asked for 0 or >= fullRank — so
// tests can tell exact answers from degraded ones by value. Its Bound
// follows the real contract: the truncation at a rank, and at full rank
// the tier's quantization term, which is 0 for this exact fake.
func fakeRanked(n, fullRank int) Ranked {
	effectiveRank := func(rank int) int {
		if rank > 0 && rank < fullRank {
			return rank
		}
		return fullRank
	}
	return Ranked{
		N:     n,
		Rank:  fullRank,
		Bound: func(rank int) float64 { return float64(fullRank - effectiveRank(rank)) },
		Query: func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			effective := effectiveRank(rank)
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
	sv := NewRanked(fakeRanked(16, 8), Config{Degrade: DegradeConfig{Rank: 2}})
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
		exact := NewRanked(kind(fakeRanked(n, fullRank)), Config{})
		defer exact.Close()
		sv := NewRanked(kind(fakeRanked(n, fullRank)), Config{
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

// A quantized tier is not exact at full rank: Bound(full) is its
// quantization term, and every answer carries it — |Q| times for a top-k —
// without being tagged Degraded, which is about rank, drift and shards
// only. Truncation adds on top of it.
func TestFullRankChargesQuantizationTerm(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		const quant = 0.125
		e := fakeRanked(16, 8)
		truncation := e.Bound
		e.Bound = func(rank int) float64 { return truncation(rank) + quant }
		sv := NewRanked(kind(e), Config{Degrade: DegradeConfig{Rank: 2, MinBudget: time.Hour}})
		defer sv.Close()

		res, err := sv.Search(context.Background(), []int{3, 5, 7}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := (QueryInfo{FullRank: 8, ErrorBound: 3 * quant}); res.Info != want {
			t.Fatalf("info = %+v, want %+v", res.Info, want)
		}
		pr, err := sv.Score(context.Background(), []int{3}, []int{4})
		if err != nil {
			t.Fatal(err)
		}
		if want := (QueryInfo{FullRank: 8, ErrorBound: quant}); pr.Info != want {
			t.Fatalf("score info = %+v, want %+v", pr.Info, want)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err = sv.Search(ctx, []int{3, 5, 9}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := (QueryInfo{Degraded: true, EffectiveRank: 2, FullRank: 8, ErrorBound: 3 * (6 + quant)}); res.Info != want {
			t.Fatalf("degraded info = %+v, want %+v", res.Info, want)
		}
	})
}

// Degradation must not arm when the configured rank is not a real
// truncation of the engine's rank, or the backend has no rank at all.
func TestDegradeDisabledWithoutRankStructure(t *testing.T) {
	ctxShort, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	sv := NewRanked(fakeRanked(16, 8), Config{
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
	}), Config{Degrade: DegradeConfig{Rank: 2, MinBudget: time.Hour}})
	defer unranked.Close()
	res, err = unranked.Search(ctxShort, []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Degraded || res.Info.FullRank != 0 {
		t.Fatalf("plain backend reported rank structure: %+v", res.Info)
	}
}

// A degraded answer does not outlive the pressure that justified it: the
// same request asked again without pressure is answered at full rank.
func TestDegradedAnswerDoesNotOutlivePressure(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		sv := NewRanked(kind(fakeRanked(16, 8)), Config{
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
		if res.Info.Degraded || int(res.Matches[0].Score) != 8 {
			t.Fatalf("unpressured repeat not full rank: %+v score=%v", res.Info, res.Matches[0].Score)
		}
	})
}

// overloaded() is the per-call pressure trigger: queue depth past the
// threshold, or any shed since the last call.
func TestBatcherOverloadSignal(t *testing.T) {
	m := NewMetrics()
	b := newBackend(fakeRanked(8, 4).Direct(), 4, 1, m, 2, 3)
	defer b.close()

	if b.overloaded() {
		t.Fatal("fresh generation reports overload")
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

	off := newBackend(fakeRanked(8, 4).Direct(), 4, 1, m, 0, 0)
	defer off.close()
	m.queueDepth.Store(100)
	if off.overloaded() {
		t.Fatal("degradation-disabled generation reports overload")
	}
	m.queueDepth.Store(0)
}

// An engine call whose caller has gone away is cancelled mid-flight —
// it runs on the request's own context — releasing its worker.
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
	sv := NewRanked(e, Config{Workers: 1})
	defer sv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sv.Search(ctx, []int{1}, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	select {
	case <-engineCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("engine pass kept running after its caller left")
	}
}

// TestDriftTaintsAnswers: a generation with a Drift func composes the
// live drift bound into every answer — the bound as of the answer, so the
// same request asked again reports the drift since — and an exhausted
// drift budget marks answers Degraded even at full rank.
func TestDriftTaintsAnswers(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		var bound float64
		var exceeded bool
		e := fakeRanked(16, 8)
		e.Drift = func() (float64, bool) { return bound, exceeded }
		sv := NewRanked(kind(e), Config{})
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
		if res.Info.DriftBound != 0.25 || res.Info.ErrorBound != 0.25 {
			t.Fatalf("repeat not tagged with live drift: %+v", res.Info)
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

// Queue depth past three quarters of MaxPending is pressure on the
// generation, whichever engine call it makes: with the one slot held,
// requests piling up behind it are answered truncated once they take the
// slot past that depth.
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
			Workers: 1, MaxPending: 4,
			Degrade: DegradeConfig{Rank: 2}, // pressure past depth 3
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
		// The first request took the slot at depth 1 and the last three
		// were answered with the queue back under the threshold.
		if degraded == 0 || degraded == clients {
			t.Fatalf("%d of %d queued requests degraded, want only those answered past depth 3", degraded, clients)
		}
		if got := sv.Metrics().DegradedBatches(); got != int64(degraded) {
			t.Fatalf("degraded batches = %d, want %d", got, degraded)
		}
	})
}

// A direct top-k merged without some shards is a degraded answer: tagged
// with the missing-shard count, its bound the sum of truncation, drift
// and the missing shards' inflation.
func TestMissingShardsTaintAnswers(t *testing.T) {
	prov := TopKProvenance{MissingShards: 1, ErrorBound: 0.5}
	e := fakeRanked(16, 8)
	e.Drift = func() (float64, bool) { return 0.25, false }
	sv := NewRanked(direct(e, prov), Config{
		Degrade: DegradeConfig{Rank: 2, MinBudget: time.Hour},
	})
	defer sv.Close()

	for i := 0; i < 2; i++ {
		res, err := sv.Search(context.Background(), []int{3}, 2)
		if err != nil {
			t.Fatal(err)
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
