package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// genQuery builds a column func whose scores encode the generation that
// produced them: column entry i scores gen + i/(2n), so floor(score)
// recovers the generation and higher node ids rank higher. Any response
// mixing generations, or serving an older generation to a request that
// started after a newer one was installed, is detectable from the scores
// alone.
func genQuery(n int, gen uint64) columnsFunc {
	return func(queries []int) ([][]float64, error) {
		out := make([][]float64, len(queries))
		for j := range queries {
			col := make([]float64, n)
			for i := range col {
				col[i] = float64(gen) + float64(i)/float64(2*n)
			}
			out[j] = col
		}
		return out, nil
	}
}

func scoreGen(t *testing.T, matches []Match) uint64 {
	t.Helper()
	if len(matches) == 0 {
		t.Fatal("empty match set")
	}
	g := uint64(matches[0].Score)
	for _, m := range matches[1:] {
		if uint64(m.Score) != g {
			t.Fatalf("response mixes generations: %v", matches)
		}
	}
	return g
}

func TestServerSwapBasic(t *testing.T) {
	s := NewRanked(plain(8, genQuery(8, 1)), Config{})
	defer s.Close()
	if got := s.Generation(); got != 1 {
		t.Fatalf("boot generation = %d, want 1", got)
	}
	r1, err := s.Search(context.Background(), []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g := scoreGen(t, r1.Matches); g != 1 {
		t.Fatalf("generation 1 scores, got %d", g)
	}
	// The same query after a swap is answered by the new engine.
	if gen := s.SwapRanked(plain(8, genQuery(8, 2))); gen != 2 {
		t.Fatalf("Swap returned generation %d, want 2", gen)
	}
	if got := s.Metrics().Generation(); got != 2 {
		t.Fatalf("metrics generation gauge = %d, want 2", got)
	}
	r2, err := s.Search(context.Background(), []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g := scoreGen(t, r2.Matches); g != 2 {
		t.Fatalf("post-swap scores from generation %d, want 2", g)
	}
}

func TestServerSwapChangesN(t *testing.T) {
	s := NewRanked(plain(10, genQuery(10, 1)), Config{MaxK: 100})
	defer s.Close()
	if _, err := s.Search(context.Background(), []int{9}, 3); err != nil {
		t.Fatal(err)
	}
	s.SwapRanked(plain(4, genQuery(4, 2))) // the new graph shrank
	if _, err := s.Search(context.Background(), []int{9}, 3); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("node 9 on a 4-node generation: err = %v, want ErrBadRequest", err)
	}
	res, err := s.Search(context.Background(), []int{0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 { // k clamps to the new n: 4 nodes minus the query
		t.Fatalf("got %d matches, want 3", len(res.Matches))
	}
	if s.N() != 4 {
		t.Fatalf("N() = %d, want 4", s.N())
	}
}

func TestServerSwapAfterCloseRefused(t *testing.T) {
	s := NewRanked(plain(4, genQuery(4, 1)), Config{})
	s.Close()
	if gen := s.SwapRanked(plain(4, genQuery(4, 2))); gen != 0 {
		t.Fatalf("Swap after Close returned %d, want 0", gen)
	}
	if _, err := s.Search(context.Background(), []int{1}, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestReloadUnderFire is the acceptance test for the hot-reload tentpole:
// concurrent top-k traffic across 10 generation swaps must see zero
// failed requests and zero answers from a superseded generation.
// Generations are encoded in the scores (genQuery), so a call answered by
// the wrong engine shows up as floor(score) < the generation observed
// before the request started. Run under -race this also shakes out every
// swap/serve data race.
func TestReloadUnderFire(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		const (
			n       = 64
			swaps   = 10
			workers = 8
		)
		var current atomic.Uint64 // highest generation Swap has returned
		s := NewRanked(kind(plain(n, genQuery(n, 1))), Config{
			Workers:    4,
			MaxPending: 1 << 16, // admission shedding would show up as failures; give headroom
		})
		defer s.Close()
		current.Store(1)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		var served atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					floor := current.Load()
					res, err := s.Search(context.Background(), []int{rng.Intn(8)}, 3)
					if err != nil {
						t.Errorf("request failed during reload: %v", err)
						return
					}
					if got := scoreGen(t, res.Matches); got < floor {
						t.Errorf("request started at generation >= %d answered by generation %d", floor, got)
						return
					}
					served.Add(1)
				}
			}(int64(w))
		}

		for g := uint64(2); g <= swaps+1; g++ {
			time.Sleep(3 * time.Millisecond)
			if gen := s.SwapRanked(kind(plain(n, genQuery(n, g)))); gen != g {
				t.Fatalf("swap %d returned generation %d", g, gen)
			}
			// Only after Swap returns may workers treat g as the floor: a
			// request started before the swap may legitimately be answered by
			// the outgoing generation.
			current.Store(g)
		}
		time.Sleep(3 * time.Millisecond)
		close(stop)
		wg.Wait()

		if t.Failed() {
			return
		}
		if served.Load() == 0 {
			t.Fatal("no requests served")
		}
		if got := s.Generation(); got != swaps+1 {
			t.Fatalf("final generation %d, want %d", got, swaps+1)
		}
		snap := s.Metrics().Snapshot()
		if snap["generation"].(uint64) != swaps+1 {
			t.Fatalf("metrics generation = %v", snap["generation"])
		}
		t.Logf("served %d requests across %d swaps with zero failures", served.Load(), swaps)
	})
}

// TestServerSwapDrainsOldGeneration pins the RCU contract directly: an
// engine call in flight on the old engine when Swap begins completes on
// that engine, and Swap waits for it.
func TestServerSwapDrainsOldGeneration(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		const n = 8
		enter := make(chan struct{}, 1)
		release := make(chan struct{})
		slow := func(queries []int) ([][]float64, error) {
			enter <- struct{}{}
			<-release
			return genQuery(n, 1)(queries)
		}
		s := NewRanked(kind(plain(n, slow)), Config{Workers: 1})
		defer s.Close()

		done := make(chan []Match, 1)
		go func() {
			res, err := s.Search(context.Background(), []int{2}, 2)
			if err != nil {
				t.Error(err)
			}
			done <- res.Matches
		}()
		<-enter // the old engine now owns an in-flight call

		swapped := make(chan struct{})
		go func() {
			s.SwapRanked(kind(plain(n, genQuery(n, 2))))
			close(swapped)
		}()
		select {
		case <-swapped:
			t.Fatal("Swap returned while a call was in flight on the old generation")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-swapped
		if g := scoreGen(t, <-done); g != 1 {
			t.Fatalf("in-flight call answered by generation %d, want 1", g)
		}
		res, err := s.Search(context.Background(), []int{2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if g := scoreGen(t, res.Matches); g != 2 {
			t.Fatalf("post-swap request answered by generation %d, want 2", g)
		}
	})
}

// A request that arrives while a swap waits for the old generation's
// held slot is answered by the new generation at once: it neither waits
// for the old slot nor lengthens the drain.
func TestServerSwapAnswersArrivalsOnSuccessor(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		const n = 8
		enter := make(chan struct{}, 1)
		release := make(chan struct{})
		var oldCalls atomic.Int64
		slow := func(queries []int) ([][]float64, error) {
			oldCalls.Add(1)
			enter <- struct{}{}
			<-release
			return genQuery(n, 1)(queries)
		}
		s := NewRanked(kind(plain(n, slow)), Config{Workers: 1, MaxPending: 1})
		defer s.Close()

		done := make(chan error, 1)
		go func() {
			_, err := s.Search(context.Background(), []int{2}, 2)
			done <- err
		}()
		<-enter // the old generation's one slot is held

		swapped := make(chan struct{})
		go func() {
			s.SwapRanked(kind(plain(n, genQuery(n, 2))))
			close(swapped)
		}()
		waitFor(t, func() bool { return s.Generation() == 2 })

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err := s.Search(ctx, []int{3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if g := scoreGen(t, res.Matches); g != 2 {
			t.Fatalf("request arriving during the swap answered by generation %d, want 2", g)
		}
		select {
		case <-swapped:
			t.Fatal("Swap returned while a call was in flight on the old generation")
		default:
		}
		close(release)
		<-swapped
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if c := oldCalls.Load(); c != 1 {
			t.Fatalf("old generation made %d engine calls, want 1", c)
		}
	})
}

// TestServerSwapWaitsForBound: an answer's error bound is part of the
// answer, and a cold Bound reads the generation's factors — which the
// caller of SwapRanked may unmap as soon as it returns. So a Bound still
// running on the old generation holds the swap exactly as an engine call
// does, for both request kinds.
func TestServerSwapWaitsForBound(t *testing.T) {
	for _, kind := range []string{"search", "score"} {
		t.Run(kind, func(t *testing.T) {
			const n = 8
			enter := make(chan struct{}, 1)
			release := make(chan struct{})
			e := plain(n, genQuery(n, 1))
			e.Rank = 4
			e.Bound = func(int) float64 {
				enter <- struct{}{}
				<-release
				return 0.25
			}
			s := NewRanked(e, Config{Workers: 1})
			defer s.Close()

			bound := make(chan float64, 1)
			go func() {
				var info QueryInfo
				var err error
				if kind == "search" {
					var res SearchResult
					res, err = s.Search(context.Background(), []int{2}, 2)
					info = res.Info
				} else {
					var res PairsResult
					res, err = s.Score(context.Background(), []int{2}, []int{5})
					info = res.Info
				}
				if err != nil {
					t.Error(err)
				}
				bound <- info.ErrorBound
			}()
			<-enter // the old generation's Bound is running

			swapped := make(chan struct{})
			go func() {
				s.SwapRanked(plain(n, genQuery(n, 2)))
				close(swapped)
			}()
			select {
			case <-swapped:
				t.Fatal("SwapRanked returned while the old generation's Bound was running")
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			<-swapped
			if got := <-bound; got != 0.25 {
				t.Fatalf("ErrorBound = %v, want the old generation's 0.25", got)
			}
		})
	}
}
