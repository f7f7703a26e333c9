package serve

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"csrplus/internal/dense"
)

// fullRank fails t unless rank is 0: serve makes every engine call, and
// asks every bound, at the generation's full rank.
func fullRank(t *testing.T, rank int) {
	if rank != 0 {
		t.Errorf("asked for rank %d; serve must only ever ask for full rank, 0", rank)
	}
}

// fakeRanked builds an exact Ranked engine — Bound 0 — whose pass scores
// row i as 8 + i/(2n) in every column, and which fails t if it, or its
// Bound, is asked for any rank but full.
func fakeRanked(t *testing.T, n int) Ranked {
	return Ranked{
		N:     n,
		Bound: func(rank int) float64 { fullRank(t, rank); return 0 },
		Query: func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
			fullRank(t, rank)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			m := scratch.Reuse(n, len(queries))
			for j := range queries {
				for i := 0; i < n; i++ {
					m.Set(i, j, 8+float64(i)/float64(2*n))
				}
			}
			return m, nil
		},
	}
}

// quantized is e as a tier that is not exact at full rank: every entry
// sits exactly quant below e's, and Bound(0) advertises quant.
func quantized(t *testing.T, e Ranked, quant float64) Ranked {
	query := e.Query
	e.Query = func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
		m, err := query(ctx, queries, rank, scratch)
		if err != nil {
			return nil, err
		}
		for i := range m.Data {
			m.Data[i] -= quant
		}
		return m, nil
	}
	e.Bound = func(rank int) float64 { fullRank(t, rank); return quant }
	return e
}

func TestRankedFullRankByDefault(t *testing.T) {
	sv := NewRanked(fakeRanked(t, 16), Config{})
	defer sv.Close()
	res, err := sv.Search(context.Background(), []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info != (QueryInfo{}) {
		t.Fatalf("exact full-rank answer tagged: %+v", res.Info)
	}
	if int(res.Matches[0].Score) != 8 {
		t.Fatalf("score %v did not come from a full-rank pass", res.Matches[0].Score)
	}
	if sv.Metrics().Degraded() != 0 {
		t.Fatalf("degraded counter moved: %d", sv.Metrics().Degraded())
	}
}

// TestAnswersDoNotDependOnLoad: load decides whether a request is
// answered — shed with ErrOverloaded, or expired with its deadline — never
// how. With one slot and one waiting place, a request that expires in the
// queue, a burst that sheds, and requests admitted with almost no deadline
// left are answered, when they are answered at all, bit for bit as the
// same request on an idle server; the engine and its Bound are only ever
// asked for full rank (fakeRanked fails the test otherwise).
func TestAnswersDoNotDependOnLoad(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		const n = 16
		idle := NewRanked(kind(fakeRanked(t, n)), Config{})
		defer idle.Close()
		want := func(nodes []int) SearchResult {
			res, err := idle.Search(context.Background(), nodes, 3)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		gate := make(chan struct{})
		e := fakeRanked(t, n)
		query := e.Query
		e.Query = func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
			<-gate
			return query(ctx, queries, rank, scratch)
		}
		sv := NewRanked(kind(e), Config{Workers: 1, MaxPending: 1})
		defer sv.Close()
		m := sv.Metrics()

		type answer struct {
			nodes []int
			res   SearchResult
			err   error
		}
		results := make(chan answer, 8)
		search := func(ctx context.Context, nodes []int) {
			res, err := sv.Search(ctx, nodes, 3)
			results <- answer{nodes, res, err}
		}
		go search(context.Background(), []int{1}) // takes the slot, held at the gate
		waitFor(t, func() bool { return m.Admitted() == 1 })

		// Queued behind the held slot with 20 ms to live: it expires, and
		// is never answered some cheaper way instead.
		short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		search(short, []int{2, 5})
		if got := <-results; !errors.Is(got.err, context.DeadlineExceeded) {
			t.Fatalf("queued request past its deadline: %+v, want DeadlineExceeded", got)
		}

		// The burst: one more waits for the slot, the rest are shed.
		for i := 3; m.Shed() == 0; i++ {
			admitted, shed := m.Admitted(), m.Shed()
			go search(context.Background(), []int{i, 9, i})
			waitFor(t, func() bool { return m.Admitted() > admitted || m.Shed() > shed })
		}
		close(gate)
		for i := int64(0); i < m.Admitted()-1+m.Shed(); i++ {
			got := <-results
			switch {
			case errors.Is(got.err, ErrOverloaded):
			case got.err != nil:
				t.Fatalf("%v under load: %v", got.nodes, got.err)
			case !reflect.DeepEqual(got.res, want(got.nodes)):
				t.Fatalf("%v under load answered %+v, idle %+v", got.nodes, got.res, want(got.nodes))
			}
		}

		// Admitted with almost no deadline left, on the generation that
		// was just shedding.
		for _, nodes := range [][]int{{4}, {6, 7, 6}} {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			res, err := sv.Search(ctx, nodes, 3)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := sv.Score(ctx, nodes, []int{0, 11})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			idlePr, err := idle.Score(context.Background(), nodes, []int{0, 11})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, want(nodes)) || !reflect.DeepEqual(pr, idlePr) {
				t.Fatalf("%v with little deadline: %+v / %+v, idle %+v / %+v", nodes, res, pr, want(nodes), idlePr)
			}
		}
		if m.Degraded() != 0 {
			t.Fatalf("requests_degraded = %d under load alone", m.Degraded())
		}
	})
}

// A top-k score sums |Q| entries of S, so an answer from a tier that is
// not exact at full rank may sit |Q| entrywise bounds from the exact one.
// quantized attains its advertised Bound(0) on every entry, which makes
// the aggregate sit exactly |Q| bounds away — duplicates counted, since
// they weigh double in the score: an error_bound that charged the
// entrywise bound once, or once per distinct node, would be violated by
// every multi-source answer here. Pair scores are single entries and keep
// the bound as it is.
func TestDegradedBoundCoversMultiSourceAggregate(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		const n, quant = 40, 0.125
		exact := NewRanked(kind(fakeRanked(t, n)), Config{})
		defer exact.Close()
		sv := NewRanked(kind(quantized(t, fakeRanked(t, n), quant)), Config{})
		defer sv.Close()
		for _, q := range []int{1, 3, 16} {
			queries := make([]int, q) // 0, 0, 2, 2, 4, ...: each node twice but the last
			for i := range queries {
				queries[i] = 2 * (i / 2)
			}
			full, err := exact.Search(context.Background(), queries, 5)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sv.Search(context.Background(), queries, 5)
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(q) * quant; res.Info.ErrorBound != want || res.Info.Degraded {
				t.Fatalf("|Q|=%d: info %+v, want an undegraded error bound of |Q| x the entrywise %v = %v", q, res.Info, quant, want)
			}
			for i, m := range res.Matches {
				if m.Node != full.Matches[i].Node {
					t.Fatalf("|Q|=%d: match %d is node %d, exact ranking has %d", q, i, m.Node, full.Matches[i].Node)
				}
				if d := full.Matches[i].Score - m.Score; d > res.Info.ErrorBound+1e-9 { // rounding of the fake's scores
					t.Fatalf("|Q|=%d node %d: served %v, exact %v: off by %v, advertised bound %v", q, m.Node, m.Score, full.Matches[i].Score, d, res.Info.ErrorBound)
				}
			}
			pr, err := sv.Score(context.Background(), queries, []int{1})
			if err != nil {
				t.Fatal(err)
			}
			if pr.Info.ErrorBound != quant {
				t.Fatalf("|Q|=%d: pair-score bound %v, want the entrywise %v", q, pr.Info.ErrorBound, quant)
			}
		}
	})
}

// A quantized tier is not exact at full rank: Bound(0) is its
// quantization term, and every answer carries it — |Q| times for a top-k —
// without being tagged Degraded, which is about drift and shards only.
func TestFullRankChargesQuantizationTerm(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		const quant = 0.125
		sv := NewRanked(kind(quantized(t, fakeRanked(t, 16), quant)), Config{})
		defer sv.Close()

		res, err := sv.Search(context.Background(), []int{3, 5, 7}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := (QueryInfo{ErrorBound: 3 * quant}); res.Info != want {
			t.Fatalf("info = %+v, want %+v", res.Info, want)
		}
		pr, err := sv.Score(context.Background(), []int{3}, []int{4})
		if err != nil {
			t.Fatal(err)
		}
		if want := (QueryInfo{ErrorBound: quant}); pr.Info != want {
			t.Fatalf("score info = %+v, want %+v", pr.Info, want)
		}
	})
}

// An engine call whose caller has gone away is cancelled mid-flight —
// it runs on the request's own context — releasing its worker.
func TestBatchContextCancelsAbandonedPass(t *testing.T) {
	engineCancelled := make(chan struct{})
	e := Ranked{
		N: 8,
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
		e := fakeRanked(t, 16)
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

// A direct top-k merged without some shards is a degraded answer: tagged
// with the missing-shard count, its bound the sum of drift and the
// missing shards' inflation.
func TestMissingShardsTaintAnswers(t *testing.T) {
	prov := TopKProvenance{MissingShards: 1, ErrorBound: 0.5}
	e := fakeRanked(t, 16)
	e.Drift = func() (float64, bool) { return 0.25, false }
	sv := NewRanked(direct(e, prov), Config{})
	defer sv.Close()

	for i := 0; i < 2; i++ {
		res, err := sv.Search(context.Background(), []int{3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := QueryInfo{Degraded: true, MissingShards: 1, DriftBound: 0.25, ErrorBound: 0.25 + 0.5}
		if res.Info != want {
			t.Fatalf("info = %+v, want %+v", res.Info, want)
		}
	}
	if got := sv.Metrics().Degraded(); got != 2 {
		t.Fatalf("requests_degraded = %d, want 2", got)
	}
}
