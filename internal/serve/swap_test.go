package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csrplus/internal/cache"
)

// genQuery builds a QueryFunc whose scores encode the generation that
// produced them: column entry i scores gen + i/(2n), so floor(score)
// recovers the generation and higher node ids rank higher. Any response
// mixing generations, or serving an older generation to a request that
// started after a newer one was installed, is detectable from the scores
// alone.
func genQuery(n int, gen uint64) QueryFunc {
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
	s := NewRanked(plain(8, genQuery(8, 1)), Config{Linger: -1, Cache: cache.New(32)})
	defer s.Close()
	if got := s.Generation(); got != 1 {
		t.Fatalf("boot generation = %d, want 1", got)
	}
	m1, cached, err := s.TopK(context.Background(), []int{3}, 2)
	if err != nil || cached {
		t.Fatalf("err=%v cached=%v", err, cached)
	}
	if g := scoreGen(t, m1); g != 1 {
		t.Fatalf("generation 1 scores, got %d", g)
	}
	// Warm the cache, then swap: the same query must miss and recompute
	// on the new engine — a pre-swap entry may never answer post-swap.
	if _, cached, _ = s.TopK(context.Background(), []int{3}, 2); !cached {
		t.Fatal("warm-up query not cached")
	}
	if gen := s.SwapRanked(plain(8, genQuery(8, 2))); gen != 2 {
		t.Fatalf("Swap returned generation %d, want 2", gen)
	}
	if got := s.Metrics().Generation(); got != 2 {
		t.Fatalf("metrics generation gauge = %d, want 2", got)
	}
	m2, cached, err := s.TopK(context.Background(), []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("post-swap request served from pre-swap cache entry")
	}
	if g := scoreGen(t, m2); g != 2 {
		t.Fatalf("post-swap scores from generation %d, want 2", g)
	}
	// And the new generation's own entry is cached normally.
	if _, cached, _ = s.TopK(context.Background(), []int{3}, 2); !cached {
		t.Fatal("new generation's result not cached")
	}
}

func TestServerSwapChangesN(t *testing.T) {
	s := NewRanked(plain(10, genQuery(10, 1)), Config{Linger: -1, MaxK: 100})
	defer s.Close()
	if _, _, err := s.TopK(context.Background(), []int{9}, 3); err != nil {
		t.Fatal(err)
	}
	s.SwapRanked(plain(4, genQuery(4, 2))) // the new graph shrank
	if _, _, err := s.TopK(context.Background(), []int{9}, 3); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("node 9 on a 4-node generation: err = %v, want ErrBadRequest", err)
	}
	matches, _, err := s.TopK(context.Background(), []int{0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 { // k clamps to the new n: 4 nodes minus the query
		t.Fatalf("got %d matches, want 3", len(matches))
	}
	if s.N() != 4 {
		t.Fatalf("N() = %d, want 4", s.N())
	}
}

func TestServerSwapAfterCloseRefused(t *testing.T) {
	s := NewRanked(plain(4, genQuery(4, 1)), Config{Linger: -1})
	s.Close()
	if gen := s.SwapRanked(plain(4, genQuery(4, 2))); gen != 0 {
		t.Fatalf("Swap after Close returned %d, want 0", gen)
	}
	if _, _, err := s.TopK(context.Background(), []int{1}, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestReloadUnderFire is the acceptance test for the hot-reload tentpole:
// concurrent TopK traffic across 10 generation swaps must see zero failed
// requests and zero cross-generation cache hits. Generations are encoded
// in the scores (genQuery), so a stale cache entry or a batch answered by
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
			MaxBatch:   8,
			Linger:     100 * time.Microsecond,
			Workers:    4,
			MaxPending: 1 << 16, // admission shedding would show up as failures; give headroom
			Cache:      cache.New(256),
		})
		defer s.Close()
		current.Store(1)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		var served, cachedHits atomic.Int64
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
					// A small node universe keeps the within-generation cache
					// hit rate high, which is exactly where a missing
					// generation namespace would leak stale entries.
					floor := current.Load()
					matches, cached, err := s.TopK(context.Background(), []int{rng.Intn(8)}, 3)
					if err != nil {
						t.Errorf("request failed during reload: %v", err)
						return
					}
					got := scoreGen(t, matches)
					if got < floor {
						t.Errorf("request started at generation >= %d answered by generation %d (cached=%v)", floor, got, cached)
						return
					}
					served.Add(1)
					if cached {
						cachedHits.Add(1)
					}
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
		if cachedHits.Load() == 0 {
			t.Error("no cache hits at all — the cache path was not exercised under fire")
		}
		if got := s.Generation(); got != swaps+1 {
			t.Fatalf("final generation %d, want %d", got, swaps+1)
		}
		snap := s.Metrics().Snapshot()
		if snap["generation"].(uint64) != swaps+1 {
			t.Fatalf("metrics generation = %v", snap["generation"])
		}
		t.Logf("served %d requests (%d cached) across %d swaps with zero failures",
			served.Load(), cachedHits.Load(), swaps)
	})
}

// TestServerSwapDrainsOldGeneration pins the RCU contract directly: a
// batch in flight on the old engine when Swap begins completes on that
// engine, and Swap waits for it.
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
		s := NewRanked(kind(plain(n, slow)), Config{Linger: -1, Workers: 1})
		defer s.Close()

		done := make(chan []Match, 1)
		go func() {
			m, _, err := s.TopK(context.Background(), []int{2}, 2)
			if err != nil {
				t.Error(err)
			}
			done <- m
		}()
		<-enter // the old engine now owns an in-flight batch

		swapped := make(chan struct{})
		go func() {
			s.SwapRanked(kind(plain(n, genQuery(n, 2))))
			close(swapped)
		}()
		select {
		case <-swapped:
			t.Fatal("Swap returned while a batch was in flight on the old generation")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-swapped
		if g := scoreGen(t, <-done); g != 1 {
			t.Fatalf("in-flight batch answered by generation %d, want 1", g)
		}
		m, _, err := s.TopK(context.Background(), []int{2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if g := scoreGen(t, m); g != 2 {
			t.Fatalf("post-swap request answered by generation %d, want 2", g)
		}
	})
}
