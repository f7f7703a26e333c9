package shard_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/shard"
)

// TestLocalSwapWaitsForPins pins the drain barrier a worker's reload rests
// on: Swap installs the next generation at once, but returns only when no
// call holds the one it retired — so the caller may unmap it — and a call
// that starts after Swap returned can never see the retired shard.
func TestLocalSwapWaitsForPins(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	view := func() *core.IndexShard {
		sh, err := ix.Shard(0, ix.N())
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	a, b := view(), view()
	l := shard.NewLocal(a)
	held, gen, release := l.Pin()
	if held != a || gen != 1 {
		t.Fatalf("pinned generation %d, want 1 over the boot shard", gen)
	}
	swapped := make(chan uint64)
	go func() { swapped <- l.Swap(b) }()
	deadline := time.Now().Add(5 * time.Second)
	for l.Generation() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("Swap never installed generation 2")
		}
		time.Sleep(time.Millisecond)
	}
	if sh, gen, rel := l.Pin(); sh != b || gen != 2 {
		t.Fatalf("a call starting mid-swap pinned generation %d, want 2", gen)
	} else {
		rel()
	}
	select {
	case gen := <-swapped:
		t.Fatalf("Swap returned generation %d while a call still held generation 1", gen)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case gen := <-swapped:
		if gen != 2 {
			t.Fatalf("Swap returned generation %d, want 2", gen)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Swap did not return once the last pin was released")
	}
}

// TestLocalSwapRetiresWithZeroPins hammers Pin from four goroutines across
// many swaps. Each holder is counted against the shard it pinned for as
// long as it holds it: when Swap returns, the retired shard's count must
// be zero, and no holder may ever pin a shard whose swap has returned.
func TestLocalSwapRetiresWithZeroPins(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	const swaps = 50
	type record struct {
		holders atomic.Int64
		retired atomic.Bool
	}
	shards := make([]*core.IndexShard, swaps+1)
	recs := make(map[*core.IndexShard]*record, len(shards))
	for i := range shards {
		sh, err := ix.Shard(0, ix.N())
		if err != nil {
			t.Fatal(err)
		}
		shards[i], recs[sh] = sh, &record{}
	}
	l := shard.NewLocal(shards[0])
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sh, _, release := l.Pin()
				rec := recs[sh]
				rec.holders.Add(1)
				if rec.retired.Load() {
					t.Error("pinned a generation whose swap had already returned")
				}
				_ = sh.URow(0) // touch the factors, as a real call does
				rec.holders.Add(-1)
				release()
			}
		}()
	}
	for i := 1; i <= swaps; i++ {
		l.Swap(shards[i])
		old := recs[shards[i-1]]
		if n := old.holders.Load(); n != 0 {
			t.Fatalf("swap %d returned with %d calls still holding the retired generation", i, n)
		}
		old.retired.Store(true)
	}
	close(stop)
	wg.Wait()
	if got := l.Generation(); got != swaps+1 {
		t.Fatalf("generation %d after %d swaps, want %d", got, swaps, swaps+1)
	}
}
