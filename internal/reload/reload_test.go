package reload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/retry"
	"csrplus/internal/serve"
)

// fakeEngine answers multi-source passes with score gen + i/(2n) for node
// i, mirroring the generation-encoded engines of the serve swap tests.
func fakeEngine(n int, gen uint64) serve.RankQueryFunc {
	return func(_ context.Context, queries []int, _ int, scratch *dense.Mat) (*dense.Mat, error) {
		m := scratch.Reuse(n, len(queries))
		for j := range queries {
			for i := 0; i < n; i++ {
				m.Set(i, j, float64(gen)+float64(i)/float64(2*n))
			}
		}
		return m, nil
	}
}

// fakeClock is a manual clock for the breaker: Now moves only through
// advance, and After fires at once.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// setClock swaps the manager's time source; call before the first Reload.
func (m *Manager) setClock(c retry.Clock) {
	m.clock, m.breaker.Clock = c, c
}

func candidate(n int, gen uint64) *Candidate {
	return &Candidate{
		Ranked: serve.Ranked{N: n, Query: fakeEngine(n, gen)},
		Meta:   Meta{Source: "rebuild", Algorithm: "fake", N: n, M: int64(n), Rank: 3},
	}
}

func newManager(t *testing.T, n int) (*Manager, *serve.Server, *uint64) {
	t.Helper()
	gen := uint64(1)
	sv := serve.NewRanked(serve.Ranked{N: n, Query: fakeEngine(n, 1)}, serve.Config{})
	t.Cleanup(sv.Close)
	load := func(ctx context.Context) (*Candidate, error) {
		return candidate(n, gen), nil
	}
	return New(sv, load, Meta{Source: "boot", Algorithm: "fake", N: n}), sv, &gen
}

func TestManagerBootStatus(t *testing.T) {
	m, sv, _ := newManager(t, 8)
	st := m.Current()
	if st.Generation != 1 || st.Source != "boot" {
		t.Fatalf("boot status = %+v", st)
	}
	if sv.Generation() != 1 {
		t.Fatalf("server generation = %d", sv.Generation())
	}
}

func TestManagerReloadSwapsGeneration(t *testing.T) {
	m, sv, gen := newManager(t, 8)
	*gen = 7 // the next candidate encodes generation 7 in its scores
	st, err := m.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 || st.Source != "rebuild" {
		t.Fatalf("status after reload = %+v", st)
	}
	if m.Current().Generation != 2 {
		t.Fatalf("Current() = %+v", m.Current())
	}
	res, err := sv.Search(context.Background(), []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(res.Matches[0].Score) != 7 {
		t.Fatalf("post-reload scores from wrong engine: %v", res.Matches)
	}
	if sv.Metrics().Reloads() != 1 || sv.Metrics().ReloadFailures() != 0 {
		t.Fatalf("reload counters: %d/%d", sv.Metrics().Reloads(), sv.Metrics().ReloadFailures())
	}
	if sv.Metrics().ReloadDuration.Snapshot().Count != 1 {
		t.Fatal("reload duration not observed")
	}
}

func TestManagerLoadFailureKeepsServing(t *testing.T) {
	sv := serve.NewRanked(serve.Ranked{N: 8, Query: fakeEngine(8, 1)}, serve.Config{})
	defer sv.Close()
	boom := errors.New("disk on fire")
	m := New(sv, func(ctx context.Context) (*Candidate, error) { return nil, boom }, Meta{Source: "boot"})
	st, err := m.Reload(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the loader's error", err)
	}
	if st.Generation != 1 {
		t.Fatalf("failed reload advanced the generation: %+v", st)
	}
	if _, err := sv.Search(context.Background(), []int{1}, 2); err != nil {
		t.Fatalf("old generation stopped serving after failed reload: %v", err)
	}
	if sv.Metrics().ReloadFailures() != 1 {
		t.Fatalf("reload_failures = %d", sv.Metrics().ReloadFailures())
	}
	if sv.Metrics().Generation() != 1 {
		t.Fatalf("generation gauge moved on failure: %d", sv.Metrics().Generation())
	}
}

func TestManagerValidationFailureKeepsServing(t *testing.T) {
	engine := func(n int, query serve.RankQueryFunc) *Candidate {
		return &Candidate{Ranked: serve.Ranked{N: n, Query: query}}
	}
	bad := map[string]*Candidate{
		"nil candidate":  nil,
		"no engine":      engine(8, nil),
		"non-positive n": engine(0, fakeEngine(8, 2)),
		"query error": engine(8, func(context.Context, []int, int, *dense.Mat) (*dense.Mat, error) {
			return nil, errors.New("broken index")
		}),
		"wrong shape": engine(8, fakeEngine(4, 2)),
		"nan scores": engine(8, func(_ context.Context, q []int, _ int, s *dense.Mat) (*dense.Mat, error) {
			m := s.Reuse(8, len(q))
			m.Set(3, 0, math.NaN())
			return m, nil
		}),
		"zero self-similarity": engine(8, func(_ context.Context, q []int, _ int, s *dense.Mat) (*dense.Mat, error) {
			m := s.Reuse(8, len(q))
			return m, nil // all-zero matrix: diagonal violates the floor
		}),
	}
	for name, cand := range bad {
		cand := cand
		t.Run(name, func(t *testing.T) {
			sv := serve.NewRanked(serve.Ranked{N: 8, Query: fakeEngine(8, 1)}, serve.Config{})
			defer sv.Close()
			m := New(sv, func(context.Context) (*Candidate, error) { return cand, nil }, Meta{})
			st, err := m.Reload(context.Background())
			if !errors.Is(err, ErrValidation) {
				t.Fatalf("err = %v, want ErrValidation", err)
			}
			if st.Generation != 1 || sv.Generation() != 1 {
				t.Fatalf("rejected candidate advanced the generation: %+v", st)
			}
			if _, err := sv.Search(context.Background(), []int{1}, 2); err != nil {
				t.Fatalf("old generation broken after rejection: %v", err)
			}
		})
	}
}

// A trigger landing mid-reload must neither queue nor vanish: it returns
// ErrCoalesced immediately and the in-flight reload runs the lifecycle
// once more before releasing the lock.
func TestManagerConcurrentReloadsCoalesce(t *testing.T) {
	sv := serve.NewRanked(serve.Ranked{N: 8, Query: fakeEngine(8, 1)}, serve.Config{})
	defer sv.Close()
	var calls atomic.Int32
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	m := New(sv, func(ctx context.Context) (*Candidate, error) {
		entered <- struct{}{}
		if calls.Add(1) == 1 {
			<-release // only the first load blocks; the coalesced re-run flows
		}
		return candidate(8, 2), nil
	}, Meta{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := m.Reload(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	<-entered // first reload is mid-load and holds the lifecycle lock
	if _, err := m.Reload(context.Background()); !errors.Is(err, ErrCoalesced) {
		t.Fatalf("concurrent reload: err = %v, want ErrCoalesced", err)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 2 {
		t.Fatalf("loader ran %d times, want 2 (original + coalesced re-run)", got)
	}
	if m.Current().Generation != 3 {
		t.Fatalf("coalesced trigger did not land its own generation: %+v", m.Current())
	}
}

// A trigger that coalesced into a reload is owed its own pass, and the
// in-flight caller hanging up does not cancel it: ErrCoalesced promised
// the reload will happen. The caller's own pass still ends with its ctx.
func TestManagerCoalescedTriggerOutlivesCancelledCaller(t *testing.T) {
	sv := serve.NewRanked(serve.Ranked{N: 8, Query: fakeEngine(8, 1)}, serve.Config{})
	defer sv.Close()
	var loads atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	m := New(sv, func(ctx context.Context) (*Candidate, error) {
		if loads.Add(1) == 1 {
			close(entered)
			<-release
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return candidate(8, 2), nil
	}, Meta{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Reload(ctx)
		done <- err
	}()
	<-entered // the first reload is mid-load and holds the lifecycle lock
	if _, err := m.Reload(context.Background()); !errors.Is(err, ErrCoalesced) {
		t.Fatalf("concurrent reload: err = %v, want ErrCoalesced", err)
	}
	cancel() // the first caller hangs up
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Reload returned %v, want the coalesced pass's success", err)
	}
	if got := loads.Load(); got != 2 {
		t.Fatalf("loader ran %d times, want 2: the coalesced trigger was dropped with its carrier's ctx", got)
	}
	if st := m.Current(); st.Generation != 2 {
		t.Fatalf("coalesced pass did not swap: %+v", st)
	}
	if b := m.Breaker(); b.ConsecutiveFailures != 0 {
		t.Fatalf("the cancelled pass charged the breaker: %+v", b)
	}
}

// A reload is one attempt: a failing load is not re-run inside the
// Reload call, and the next trigger is what tries again.
func TestManagerFailedReloadIsOneAttempt(t *testing.T) {
	sv := serve.NewRanked(serve.Ranked{N: 8, Query: fakeEngine(8, 1)}, serve.Config{})
	defer sv.Close()
	var calls atomic.Int32
	m := New(sv, func(ctx context.Context) (*Candidate, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("no servable generation yet")
		}
		return candidate(8, 2), nil
	}, Meta{})

	if _, err := m.Reload(context.Background()); err == nil {
		t.Fatal("reload over a failing load succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("one trigger ran the loader %d times, want 1", got)
	}
	st, err := m.Reload(context.Background())
	if err != nil {
		t.Fatalf("second trigger: %v", err)
	}
	if st.Generation != 2 || calls.Load() != 2 {
		t.Fatalf("gen=%d after %d loads; want gen 2 after 2", st.Generation, calls.Load())
	}
	mtr := sv.Metrics()
	if mtr.ReloadFailures() != 1 || mtr.Reloads() != 1 {
		t.Fatalf("failures/reloads = %d/%d, want 1/1", mtr.ReloadFailures(), mtr.Reloads())
	}
	if b := m.Breaker(); b.ConsecutiveFailures != 0 {
		t.Fatalf("breaker after a success: %+v", b)
	}
}

// Five consecutive failed runs open the breaker: triggers fail fast
// without a load attempt for ten seconds, then one probe run closes it
// again on success.
func TestManagerBreakerOpensAndRecovers(t *testing.T) {
	sv := serve.NewRanked(serve.Ranked{N: 8, Query: fakeEngine(8, 1)}, serve.Config{})
	defer sv.Close()
	var calls atomic.Int32
	var healthy atomic.Bool
	m := New(sv, func(ctx context.Context) (*Candidate, error) {
		calls.Add(1)
		if !healthy.Load() {
			return nil, errors.New("snapshot source down")
		}
		return candidate(8, 2), nil
	}, Meta{})
	clk := &fakeClock{now: time.Unix(1, 0)}
	m.setClock(clk)

	for i := 0; i < 5; i++ {
		if b := m.Breaker(); b.Open {
			t.Fatalf("breaker open after %d failures: %+v", i, b)
		}
		if _, err := m.Reload(context.Background()); err == nil {
			t.Fatalf("reload %d unexpectedly succeeded", i)
		}
	}
	if b := m.Breaker(); !b.Open || b.ConsecutiveFailures != 5 || !b.RetryAt.Equal(clk.Now().Add(10*time.Second)) {
		t.Fatalf("breaker after five failures: %+v", b)
	}
	before := calls.Load()
	if _, err := m.Reload(context.Background()); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker: err = %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still hit the loader")
	}
	if sv.Generation() != 1 {
		t.Fatalf("failed reloads moved the generation: %d", sv.Generation())
	}

	healthy.Store(true)
	clk.advance(10 * time.Second) // cooldown elapses; next trigger is the probe
	st, err := m.Reload(context.Background())
	if err != nil {
		t.Fatalf("probe reload after cooldown: %v", err)
	}
	if st.Generation != 2 {
		t.Fatalf("probe did not swap: %+v", st)
	}
	if b := m.Breaker(); b.Open || b.ConsecutiveFailures != 0 {
		t.Fatalf("breaker after recovery: %+v", b)
	}
}

// A reload its caller cancelled is not evidence that the source is
// broken: however many there are, they leave the breaker closed and
// uncharged, so /readyz stays 200.
func TestManagerCancelledReloadIsNotAFailedRun(t *testing.T) {
	sv := serve.NewRanked(serve.Ranked{N: 8, Query: fakeEngine(8, 1)}, serve.Config{})
	defer sv.Close()
	m := New(sv, func(ctx context.Context) (*Candidate, error) {
		<-ctx.Done() // the caller hangs up mid-load
		return nil, ctx.Err()
	}, Meta{})
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := m.Reload(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("reload %d: err = %v, want context.Canceled", i, err)
		}
	}
	if b := m.Breaker(); b.Open || b.ConsecutiveFailures != 0 {
		t.Fatalf("cancelled reloads charged the breaker: %+v", b)
	}
	if sv.Generation() != 1 {
		t.Fatalf("cancelled reloads moved the generation: %d", sv.Generation())
	}
}

// A candidate's Bound is installed with its engine: after the swap every
// answer carries the candidate's full-rank bound, Bound(0), and neither
// its engine nor its Bound is asked for any other rank.
func TestManagerRankedCandidateSwap(t *testing.T) {
	const n, quant = 8, 0.125
	fullRank := func(rank int) {
		if rank != 0 {
			t.Errorf("candidate asked for rank %d, want full rank 0", rank)
		}
	}
	sv := serve.NewRanked(serve.Ranked{N: n, Query: fakeEngine(n, 1)}, serve.Config{})
	defer sv.Close()
	cand := &Candidate{
		Ranked: serve.Ranked{
			N:     n,
			Bound: func(rank int) float64 { fullRank(rank); return quant },
			Query: func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error) {
				fullRank(rank)
				m := scratch.Reuse(n, len(queries))
				for j := range queries {
					for i := 0; i < n; i++ {
						m.Set(i, j, 10+float64(i)/float64(2*n))
					}
				}
				return m, nil
			},
		},
		Meta: Meta{Source: "snapshot", Rank: 6},
	}
	m := New(sv, func(context.Context) (*Candidate, error) { return cand, nil }, Meta{})
	res, err := sv.Search(context.Background(), []int{1, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.ErrorBound != 0 {
		t.Fatalf("boot generation without a Bound tagged %+v", res.Info)
	}
	if _, err := m.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err = sv.Search(context.Background(), []int{1, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := (serve.QueryInfo{ErrorBound: 2 * quant}); res.Info != want {
		t.Fatalf("post-swap top-k info = %+v, want %+v", res.Info, want)
	}
	if int(res.Matches[0].Score) != 2*10 {
		t.Fatalf("post-swap aggregate %v did not come from the candidate", res.Matches[0].Score)
	}
	pr, err := sv.Score(context.Background(), []int{1}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if want := (serve.QueryInfo{ErrorBound: quant}); pr.Info != want {
		t.Fatalf("post-swap pair info = %+v, want %+v", pr.Info, want)
	}
}

func TestManagerReloadAfterServerClose(t *testing.T) {
	sv := serve.NewRanked(serve.Ranked{N: 8, Query: fakeEngine(8, 1)}, serve.Config{})
	m := New(sv, func(context.Context) (*Candidate, error) { return candidate(8, 2), nil }, Meta{})
	sv.Close()
	if _, err := m.Reload(context.Background()); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestManagerReloadUnderTraffic drives the full manager path (not just
// Server.Swap) while requests are in flight: five reloads, no failures.
func TestManagerReloadUnderTraffic(t *testing.T) {
	const n = 32
	var mu sync.Mutex
	next := uint64(1)
	sv := serve.NewRanked(serve.Ranked{N: n, Query: fakeEngine(n, 1)}, serve.Config{
		MaxPending: 1 << 14,
	})
	defer sv.Close()
	m := New(sv, func(ctx context.Context) (*Candidate, error) {
		mu.Lock()
		next++
		g := next
		mu.Unlock()
		return candidate(n, g), nil
	}, Meta{Source: "boot"})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sv.Search(context.Background(), []int{(w + i) % n}, 3); err != nil {
					t.Errorf("request failed mid-reload: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 5; r++ {
		time.Sleep(2 * time.Millisecond)
		if _, err := m.Reload(context.Background()); err != nil {
			t.Fatalf("reload %d: %v", r, err)
		}
	}
	close(stop)
	wg.Wait()
	if got := m.Current().Generation; got != 6 {
		t.Fatalf("generation = %d, want 6", got)
	}
}

func TestValidateProbeNodes(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{1, 1}, {2, 2}, {3, 3}, {100, 3}} {
		if got := len(probeNodes(tc.n)); got != tc.want {
			t.Fatalf("probeNodes(%d) = %d probes, want %d", tc.n, got, tc.want)
		}
	}
	// A real-looking candidate with n=1 must validate (degenerate graphs
	// exist in tests and tiny deployments).
	if err := Validate(candidate(1, 1)); err != nil {
		t.Fatalf("n=1 candidate rejected: %v", err)
	}
}

func ExampleManager() {
	sv := serve.NewRanked(serve.Ranked{N: 4, Query: fakeEngine(4, 1)}, serve.Config{})
	defer sv.Close()
	m := New(sv, func(context.Context) (*Candidate, error) { return candidate(4, 2), nil },
		Meta{Source: "boot"})
	st, _ := m.Reload(context.Background())
	fmt.Println(st.Generation, st.Source)
	// Output: 2 rebuild
}
