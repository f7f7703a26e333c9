package serve

// The Batcher and Pool in these test names are earlier components that
// became a generation's admission bound and Workers slots; each test now
// drives a Server, and keeps its name so the suite's test IDs stay
// comparable.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeEngine counts calls and returns recognisable columns: column of
// node q has value float64(q) at every index.
type fakeEngine struct {
	n     int
	calls atomic.Int64
	delay time.Duration
	gate  chan struct{} // when non-nil, every call blocks until it closes
	err   error
}

func (f *fakeEngine) query(queries []int) ([][]float64, error) {
	f.calls.Add(1)
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.err != nil {
		return nil, f.err
	}
	out := make([][]float64, len(queries))
	for j, q := range queries {
		col := make([]float64, f.n)
		for i := range col {
			col[i] = float64(q)
		}
		out[j] = col
	}
	return out, nil
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// serveGoroutines counts the live goroutines this package's non-test code
// started.
func serveGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, line := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n") {
		if strings.HasPrefix(line, "created by csrplus/internal/serve.") && !strings.Contains(line, ".Test") {
			n++
		}
	}
	return n
}

// A generation holds exactly Workers + MaxPending requests: one in the
// engine per worker and MaxPending queued. Nothing else holds one, so the
// next is shed with the typed error, and the held ones all complete once
// the engine unblocks.
func TestBatcherOverload(t *testing.T) {
	gate := make(chan struct{})
	eng := &fakeEngine{n: 8, gate: gate}
	s := NewRanked(plain(eng.n, eng.query), Config{MaxPending: 1, Workers: 1})
	defer s.Close()
	m := s.Metrics()

	results := make(chan error, 3)
	launch := func(node int) {
		go func() {
			_, err := s.Score(context.Background(), []int{node}, []int{0})
			results <- err
		}()
	}
	launch(0)
	waitFor(t, func() bool { return eng.calls.Load() == 1 }) // the worker holds it
	launch(1)
	waitFor(t, func() bool { return m.Admitted() == 2 }) // the queue holds it
	launch(2)
	if err := <-results; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request err = %v, want ErrOverloaded", err)
	}
	if m.Shed() != 1 {
		t.Fatalf("shed = %d, want 1", m.Shed())
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request: %v", err)
		}
	}
}

// A request that expires waiting for the one slot gives its admission
// place back: with Workers 1 and MaxPending 1 held by a running call and
// an expired waiter, the next request is admitted, not shed, and the
// expired one never reaches the engine.
func TestBatcherExpiredReleasesAdmission(t *testing.T) {
	gate := make(chan struct{})
	eng := &fakeEngine{n: 8, gate: gate}
	s := NewRanked(plain(eng.n, eng.query), Config{Workers: 1, MaxPending: 1})
	defer s.Close()
	m := s.Metrics()

	held := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), []int{0}, 2)
		held <- err
	}()
	waitFor(t, func() bool { return eng.calls.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Search(ctx, []int{1}, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiting request err = %v, want DeadlineExceeded", err)
	}

	next := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), []int{2}, 2)
		next <- err
	}()
	waitFor(t, func() bool { return m.Admitted() == 3 || m.Shed() > 0 })
	close(gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := <-next; err != nil {
		t.Fatalf("next request err = %v, want an answer: the expired request kept its admission place", err)
	}
	if calls, expired := eng.calls.Load(), m.Expired(); calls != 2 || expired != 1 {
		t.Fatalf("engine calls = %d, expired = %d; want 2 and 1: the expired request reached the engine", calls, expired)
	}
}

// A request that pins a generation after its close has begun — close
// sets closed before it takes the pins, so pins are still free for a
// moment — is refused with ErrClosed, gives its pin back and makes no
// engine call, so admit can retry it on the successor.
func TestBatcherRefusesPinAfterClose(t *testing.T) {
	eng := &fakeEngine{n: 8}
	s := NewRanked(plain(eng.n, eng.query), Config{Workers: 1, MaxPending: 1})
	defer s.Close()
	be := s.be.Load()
	be.closed.Store(true) // close's first step, before it has taken a pin
	if _, err := be.do(&request{ctx: context.Background(), nodes: []int{1}, k: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if calls, pinned, admitted := eng.calls.Load(), len(be.pins), s.Metrics().Admitted(); calls != 0 || pinned != 0 || admitted != 0 {
		t.Fatalf("engine calls = %d, pins held = %d, admitted = %d; want 0, 0, 0", calls, pinned, admitted)
	}
}

// A request whose deadline expires while it is queued fails with
// DeadlineExceeded, counts as expired, and never reaches the engine.
func TestBatcherDeadline(t *testing.T) {
	gate := make(chan struct{})
	eng := &fakeEngine{n: 8, gate: gate}
	s := NewRanked(plain(eng.n, eng.query), Config{Workers: 1})
	defer s.Close()
	m := s.Metrics()

	// Occupy the only worker so the deadline fires while queued.
	held := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), []int{0}, 2)
		held <- err
	}()
	waitFor(t, func() bool { return eng.calls.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Search(ctx, []int{1}, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if m.Expired() != 1 {
		t.Fatalf("expired = %d, want 1", m.Expired())
	}
	close(gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m.Snapshot()["queue_depth"].(int64) == 0 })
	if calls := eng.calls.Load(); calls != 1 {
		t.Fatalf("engine calls = %d, want 1: the expired request reached the engine", calls)
	}
}

func TestBatcherPropagatesEngineError(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind func(Ranked) Ranked) {
		boom := errors.New("boom")
		eng := &fakeEngine{n: 8, err: boom}
		s := NewRanked(kind(plain(eng.n, eng.query)), Config{})
		defer s.Close()
		if _, err := s.Search(context.Background(), []int{0}, 2); !errors.Is(err, boom) {
			t.Fatalf("top-k err = %v, want boom", err)
		}
		if _, err := s.Score(context.Background(), []int{0}, []int{1}); !errors.Is(err, boom) {
			t.Fatalf("similarity err = %v, want boom", err)
		}
	})
}

func TestBatcherCloseDrainsAndRejects(t *testing.T) {
	eng := &fakeEngine{n: 8, delay: 5 * time.Millisecond}
	s := NewRanked(plain(eng.n, eng.query), Config{Workers: 2})

	// Requests admitted before Close must still be answered.
	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			_, err := s.Search(context.Background(), []int{i}, 2)
			errs <- err
		}(i)
	}
	m := s.Metrics()
	waitFor(t, func() bool { return m.Admitted() == clients })
	s.Close()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("pre-close request failed: %v", err)
		}
	}
	if _, err := s.Search(context.Background(), []int{0}, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// Every admitted request is answered by an engine call of its own: a
// hundred concurrent single-node requests are a hundred calls of one node.
func TestPoolRunsAllTasks(t *testing.T) {
	eng := &fakeEngine{n: 8}
	s := NewRanked(plain(eng.n, eng.query), Config{Workers: 4})
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Score(context.Background(), []int{i % eng.n}, []int{0}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	snap := s.Metrics().Snapshot()
	if eng.calls.Load() != 100 || snap["engine_batches"].(int64) != 100 || snap["mean_batch_occupancy"].(float64) != 1 {
		t.Fatalf("engine calls %d, engine_batches %v, mean occupancy %v; want 100, 100, 1",
			eng.calls.Load(), snap["engine_batches"], snap["mean_batch_occupancy"])
	}
}

// Workers bounds concurrent engine calls, and a generation starts no
// goroutines: every request runs on its caller's, also while requests are
// held in the engine and waiting for a slot.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	gate := make(chan struct{})
	e := plain(8, func(queries []int) ([][]float64, error) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-gate
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return (&fakeEngine{n: 8}).query(queries)
	})
	s := NewRanked(e, Config{Workers: workers})
	defer s.Close()
	waitFor(t, func() bool { return serveGoroutines() == 0 })

	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Search(context.Background(), []int{i % 8}, 2); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitFor(t, func() bool { return s.Metrics().Admitted() == 30 && inFlight.Load() == workers })
	if n := serveGoroutines(); n != 0 {
		t.Fatalf("%d goroutines started by serve with 30 requests held", n)
	}
	close(gate)
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent engine calls, bound is %d", got, workers)
	}
}

func TestPoolCloseWaitsForInFlight(t *testing.T) {
	var done atomic.Bool
	entered := make(chan struct{})
	e := plain(8, func(queries []int) ([][]float64, error) {
		close(entered)
		time.Sleep(10 * time.Millisecond)
		done.Store(true)
		return (&fakeEngine{n: 8}).query(queries)
	})
	s := NewRanked(e, Config{Workers: 2})
	go s.Search(context.Background(), []int{1}, 2)
	<-entered
	s.Close() // must block until the sleeping engine call finishes
	if !done.Load() {
		t.Fatal("Close returned before the in-flight engine call completed")
	}
	waitFor(t, func() bool { return serveGoroutines() == 0 })
	s.Close() // idempotent
}

func TestPoolMinimumOneWorker(t *testing.T) {
	eng := &fakeEngine{n: 8}
	s := NewRanked(plain(eng.n, eng.query), Config{Workers: -1})
	defer s.Close()
	waitFor(t, func() bool { return serveGoroutines() == 0 })
	if got := cap(s.be.Load().slots); got != 1 {
		t.Fatalf("Workers -1 gave %d slots, want 1", got)
	}
	if _, err := s.Search(context.Background(), []int{3}, 2); err != nil {
		t.Fatal(err)
	}
}
