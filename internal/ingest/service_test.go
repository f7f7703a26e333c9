package ingest

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/graph"
)

func fixtureGraph(t *testing.T) (*graph.Graph, *core.Index) {
	t.Helper()
	g, err := graph.ErdosRenyi(60, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Precompute(g, core.Options{Rank: 8})
	if err != nil {
		t.Fatal(err)
	}
	return g, ix
}

// freshEdges picks count directed edges the graph does not have, so a
// test insert is never a duplicate no-op.
func freshEdges(t *testing.T, g *graph.Graph, count int) []Edge {
	t.Helper()
	out := make([]Edge, 0, count)
	for u := 0; u < g.N() && len(out) < count; u++ {
		for v := g.N() - 1; v >= 0 && len(out) < count; v-- {
			if u != v && !g.HasEdge(u, v) {
				out = append(out, Edge{Src: u, Dst: v})
			}
		}
	}
	if len(out) < count {
		t.Fatalf("graph too dense for %d fresh edges", count)
	}
	return out
}

func newReady(t *testing.T, g *graph.Graph, ix *core.Index, cfg Config) *Service {
	t.Helper()
	svc, err := NewService(g, ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func TestServiceAppendRestartConverges(t *testing.T) {
	g, ix := fixtureGraph(t)
	dir := t.TempDir()
	svc := newReady(t, g, ix, Config{Dir: dir})

	edges := freshEdges(t, g, 3)
	seq, drift, err := svc.Append(edges)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || drift <= 0 {
		t.Fatalf("append: seq=%d drift=%g", seq, drift)
	}
	st := svc.Stats()
	if st.DurableSeq < 3 || st.Applied != 3 {
		t.Fatalf("stats after append: %+v", st)
	}
	live1, _, d1, err := svc.Cut()
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// Restart: same base graph, same factors, replay from the log.
	svc2 := newReady(t, g, ix, Config{Dir: dir})
	if got := svc2.DriftBound(); math.Abs(got-d1) > 1e-12 {
		t.Fatalf("replayed drift %g, want %g", got, d1)
	}
	live2, seq2, _, err := svc2.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != 3 {
		t.Fatalf("replayed last seq %d, want 3", seq2)
	}
	a1, a2 := live1.Adj(), live2.Adj()
	if len(a1.ColIdx) != len(a2.ColIdx) {
		t.Fatalf("restart graph has %d entries, want %d", len(a2.ColIdx), len(a1.ColIdx))
	}
	for i := range a1.ColIdx {
		if a1.ColIdx[i] != a2.ColIdx[i] || a1.Val[i] != a2.Val[i] {
			t.Fatalf("restart graph differs at entry %d", i)
		}
	}
	// The restarted log accepts appends continuing the sequence.
	if seq, _, err := svc2.Append([]Edge{{Src: 7, Dst: 8}}); err != nil || seq <= 3 {
		t.Fatalf("append after restart: seq=%d err=%v", seq, err)
	}
}

func TestServiceNotReadyBeforeRecover(t *testing.T) {
	g, ix := fixtureGraph(t)
	svc, err := NewService(g, ix, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Ready() {
		t.Fatal("cold service claims ready")
	}
	if _, _, err := svc.Append([]Edge{{Src: 1, Dst: 2}}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("append before recover: %v", err)
	}
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if !svc.Ready() {
		t.Fatal("recovered service not ready")
	}
	if err := svc.Recover(); err == nil {
		t.Fatal("double Recover accepted")
	}
}

func TestServiceRejectsBadEdgesBeforeLogging(t *testing.T) {
	g, ix := fixtureGraph(t)
	dir := t.TempDir()
	svc := newReady(t, g, ix, Config{Dir: dir})
	for _, batch := range [][]Edge{
		{{Src: -1, Dst: 2}},
		{{Src: 0, Dst: g.N()}},
		{{Src: 1, Dst: 2}, {Src: 99999, Dst: 0}}, // one bad edge poisons the batch
	} {
		if _, _, err := svc.Append(batch); !errors.Is(err, ErrBadEdge) {
			t.Fatalf("batch %v accepted: %v", batch, err)
		}
	}
	if st := svc.Stats(); st.LastSeq != 0 || st.Applied != 0 {
		t.Fatalf("rejected batches leaked into state: %+v", st)
	}
	svc.Close()
	// Nothing was logged either: a fresh recover sees an empty log.
	svc2 := newReady(t, g, ix, Config{Dir: dir})
	if st := svc2.Stats(); st.LastSeq != 0 {
		t.Fatalf("rejected batch reached the WAL: %+v", st)
	}
}

func TestServiceSnapshotSeqSplitsDriftCharging(t *testing.T) {
	g, ix := fixtureGraph(t)
	dir := t.TempDir()
	svc := newReady(t, g, ix, Config{Dir: dir})
	fresh := freshEdges(t, g, 3)
	if _, _, err := svc.Append(fresh[:2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Append(fresh[2:]); err != nil {
		t.Fatal(err)
	}
	fullDrift := svc.DriftBound()
	svc.Close()

	// A snapshot covering seq 2 replays seq 1-2 drift-free and charges
	// only the tail (seq 3).
	ix.SetWalSeq(2)
	defer ix.SetWalSeq(0)
	svc2 := newReady(t, g, ix, Config{Dir: dir})
	tail := svc2.DriftBound()
	if tail <= 0 || tail >= fullDrift {
		t.Fatalf("tail drift %g, want in (0, %g)", tail, fullDrift)
	}
	if st := svc2.Stats(); st.Applied != 1 || st.LiveEdges != g.M()+3 {
		t.Fatalf("tail replay stats: %+v", st)
	}
}

func TestServiceRebuildTriggerSingleFlightAndBaseline(t *testing.T) {
	g, ix := fixtureGraph(t)
	// A budget tiny enough that the very first edge exceeds it.
	svc := newReady(t, g, ix, Config{Dir: t.TempDir(), DriftBudget: 1e-9})
	var mu sync.Mutex
	fired := 0
	release := make(chan bool)
	svc.SetRebuildTrigger(func() {
		mu.Lock()
		fired++
		mu.Unlock()
		svc.RebuildDone(<-release)
	})

	fresh := freshEdges(t, g, 7)
	if _, drift, err := svc.Append(fresh[:1]); err != nil || drift <= 1e-9 {
		t.Fatalf("append: drift=%g err=%v", drift, err)
	}
	// More appends while the rebuild is in flight must not re-fire.
	for i := 1; i < 5; i++ {
		if _, _, err := svc.Append(fresh[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	waitFired := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			mu.Lock()
			n := fired
			mu.Unlock()
			if n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("trigger fired %d times, want %d", n, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitIdle := func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for svc.Stats().Rebuilding {
			if time.Now().After(deadline) {
				t.Fatal("rebuild episode never ended")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFired(1)

	// Failed rebuild: baselines unchanged, next append re-fires.
	cutDrift := svc.DriftBound()
	if _, _, _, err := svc.Cut(); err != nil {
		t.Fatal(err)
	}
	release <- false
	waitIdle()
	if got := svc.DriftBound(); got < cutDrift {
		t.Fatalf("failed rebuild moved the baseline: drift %g < %g", got, cutDrift)
	}
	if got := svc.Stats().Applied; got != 5 {
		t.Fatalf("failed rebuild moved the edge count: edges_since_factors = %d, want 5", got)
	}
	if _, _, err := svc.Append(fresh[5:6]); err != nil {
		t.Fatal(err)
	}
	waitFired(2)

	// Committed rebuild: the cut's drift becomes the baseline and the
	// serving bound drops to only what accrued after the cut.
	_, _, d0, err := svc.Cut()
	if err != nil {
		t.Fatal(err)
	}
	driftFn := svc.DriftFrom(d0)
	release <- true
	waitIdle()
	if got := svc.DriftBound(); got > 1e-12 {
		t.Fatalf("committed rebuild left serving drift %g", got)
	}
	if got := svc.Stats().Applied; got != 0 {
		t.Fatalf("committed rebuild left edges_since_factors = %d, want 0", got)
	}
	if d, exceeded := driftFn(); d > 1e-12 || exceeded {
		t.Fatalf("fresh generation's closure reports drift %g exceeded=%v", d, exceeded)
	}
	if _, _, err := svc.Append(fresh[6:7]); err != nil {
		t.Fatal(err)
	}
	if d, exceeded := driftFn(); d <= 0 || !exceeded {
		t.Fatalf("post-rebuild append not reflected: drift %g exceeded=%v", d, exceeded)
	}
	if got := svc.Stats().Applied; got != 1 {
		t.Fatalf("post-rebuild append: edges_since_factors = %d, want 1", got)
	}
	waitFired(3)
	release <- true
}
