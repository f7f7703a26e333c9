package ingest

import (
	"path/filepath"
	"strings"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/graph"
)

// publisher is the publish half of an ingest server, as csrserver runs it:
// cut the live graph, precompute over it, publish the index stamped with
// the cut's WAL sequence, prune the snapshot directory to its newest
// generations and the WAL to what they all hold.
type publisher struct {
	t    *testing.T
	dir  string
	svc  *Service
	rank int
}

func (p *publisher) publish() uint64 {
	p.t.Helper()
	cut, seq, _, err := p.svc.Cut()
	if err != nil {
		p.t.Fatal(err)
	}
	ix, err := core.Precompute(cut, core.Options{Rank: p.rank})
	if err != nil {
		p.t.Fatal(err)
	}
	ix.SetWalSeq(seq)
	if _, _, err := core.WriteSnapshot(p.dir, ix); err != nil {
		p.t.Fatal(err)
	}
	p.svc.RebuildDone(true)
	if _, err := core.PruneSnapshots(p.dir, core.KeepSnapshots); err != nil {
		p.t.Fatal(err)
	}
	floor, err := core.WalFloor(p.dir)
	if err != nil {
		p.t.Fatal(err)
	}
	if _, err := p.svc.PruneWAL(floor); err != nil {
		p.t.Fatal(err)
	}
	return seq
}

// bootFromSnapshots is an ingest boot: the newest generation that loads,
// and the live graph it carries.
func bootFromSnapshots(t *testing.T, snapDir string, cfg Config) (*Service, *core.Index) {
	t.Helper()
	ix, _, _, err := core.RecoverSnapshot(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	svc, err := NewService(nil, ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, ix
}

// startIngest publishes phase I over g as generation 1 and boots a ready
// service from it.
func startIngest(t *testing.T, g *graph.Graph, rank int, cfg Config) (*publisher, string) {
	t.Helper()
	snapDir := t.TempDir()
	ix, err := core.Precompute(g, core.Options{Rank: rank})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.WriteSnapshot(snapDir, ix); err != nil {
		t.Fatal(err)
	}
	svc, _ := bootFromSnapshots(t, snapDir, cfg)
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return &publisher{t: t, dir: snapDir, svc: svc, rank: rank}, snapDir
}

// TestRestartReplaysOnlyTheTail: after three publishes, an ingest restart
// builds its live graph from the newest generation's graph section and
// replays only the records past that generation's WAL sequence — and ends
// with the same live graph a restart from the static base and the whole
// log reaches.
func TestRestartReplaysOnlyTheTail(t *testing.T) {
	g0, err := graph.ErdosRenyi(80, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	pub, snapDir := startIngest(t, g0, 6, Config{Dir: walDir})
	edges := freshEdges(t, g0, 19)
	for i := 0; i < 3; i++ {
		if _, _, err := pub.svc.Append(edges[5*i : 5*i+5]); err != nil {
			t.Fatal(err)
		}
		if seq := pub.publish(); seq != uint64(5*i+5) {
			t.Fatalf("publish %d at seq %d, want %d", i+1, seq, 5*i+5)
		}
	}
	if _, _, err := pub.svc.Append(edges[15:]); err != nil {
		t.Fatal(err)
	}
	if err := pub.svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc, ix := bootFromSnapshots(t, snapDir, Config{Dir: walDir})
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	st := svc.Stats()
	if ix.WalSeq() != 15 || st.Replayed != 4 || st.LastSeq != 19 {
		t.Fatalf("restart from the generation at seq %d replayed %d records to seq %d; want 4 past seq 15, to 19", ix.WalSeq(), st.Replayed, st.LastSeq)
	}
	if st.Applied != 4 || !(st.Drift > 0) {
		t.Fatalf("restart charged %d edges (drift %g), want the 4 of the tail", st.Applied, st.Drift)
	}

	// The static base and the whole log reach the same live graph.
	full, err := NewService(g0, ix, Config{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if err := full.Recover(); err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if r := full.Stats().Replayed; r != 19 {
		t.Fatalf("restart from the static base replayed %d records, want all 19", r)
	}
	a, _, _, err := svc.Cut()
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := full.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(a, b) || a.M() != g0.M()+19 {
		t.Fatalf("live graphs differ: %d and %d edges, want %d", a.M(), b.M(), g0.M()+19)
	}
}

// sameGraph reports whether a and b hold the same weighted edges in the
// same CSR layout.
func sameGraph(a, b *graph.Graph) bool {
	x, y := a.Adj(), b.Adj()
	if a.N() != b.N() || len(x.ColIdx) != len(y.ColIdx) {
		return false
	}
	for i := range x.RowPtr {
		if x.RowPtr[i] != y.RowPtr[i] {
			return false
		}
	}
	for i := range x.ColIdx {
		if x.ColIdx[i] != y.ColIdx[i] || x.Val[i] != y.Val[i] {
			return false
		}
	}
	return true
}

// TestWALPruneStaysBounded publishes ten times over a log that rotates a
// segment per batch: each publish deletes the segments every kept
// generation holds, so the directory never grows past the kept
// generations' batches and the active segment. A boot from the newest
// generation replays nothing; one from the static base refuses the pruned
// log instead of serving a graph that silently lacks its head.
func TestWALPruneStaysBounded(t *testing.T) {
	g0, err := graph.ErdosRenyi(80, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 8
	walDir := t.TempDir()
	cfg := Config{Dir: walDir, WAL: WALOptions{SegmentBytes: batch * (frameHeader + recordSize)}}
	pub, snapDir := startIngest(t, g0, 6, cfg)
	edges := freshEdges(t, g0, 10*batch)
	for i := 0; i < 10; i++ {
		if _, _, err := pub.svc.Append(edges[batch*i : batch*(i+1)]); err != nil {
			t.Fatal(err)
		}
		pub.publish()
		segs, err := filepath.Glob(filepath.Join(walDir, "*"+segSuffix))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > core.KeepSnapshots+1 {
			t.Fatalf("publish %d leaves %d WAL segments, want at most %d", i+1, len(segs), core.KeepSnapshots+1)
		}
	}
	info, err := Inspect(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records > core.KeepSnapshots*batch || info.LastSeq != 10*batch {
		t.Fatalf("the WAL holds %d records to seq %d; want at most %d, to %d", info.Records, info.LastSeq, core.KeepSnapshots*batch, 10*batch)
	}
	if err := pub.svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc, ix := bootFromSnapshots(t, snapDir, cfg)
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Replayed != 0 || st.LastSeq != 10*batch || st.LiveEdges != g0.M()+10*batch {
		t.Fatalf("boot from the newest generation: replayed %d to seq %d, %d live edges", st.Replayed, st.LastSeq, st.LiveEdges)
	}
	svc.Close()
	base, err := NewService(g0, ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Recover(); err == nil || !strings.Contains(err.Error(), "pruned") {
		t.Fatalf("boot from the static base over a pruned log: err = %v, want the pruned head named", err)
	}
	if base.Ready() {
		t.Fatal("a boot that refused its log is ready")
	}
}

// TestFreshWALContinuesPastTheSnapshot: a WAL directory younger than the
// snapshot beside it (fresh, or removed and re-bootstrapped after damage)
// hands out sequences past the snapshot's, so a restart from that snapshot
// replays the new records instead of taking them for ones its graph holds.
func TestFreshWALContinuesPastTheSnapshot(t *testing.T) {
	g0, err := graph.ErdosRenyi(80, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	pub, snapDir := startIngest(t, g0, 6, Config{Dir: t.TempDir()})
	edges := freshEdges(t, g0, 7)
	if _, _, err := pub.svc.Append(edges[:5]); err != nil {
		t.Fatal(err)
	}
	if seq := pub.publish(); seq != 5 {
		t.Fatalf("published at seq %d, want 5", seq)
	}
	pub.svc.Close()

	walDir := t.TempDir()
	svc, _ := bootFromSnapshots(t, snapDir, Config{Dir: walDir})
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if seq, _, err := svc.Append(edges[5:]); err != nil || seq != 7 {
		t.Fatalf("first append on a fresh log beside a seq-5 snapshot: seq %d (%v), want 7", seq, err)
	}
	svc.Close()
	again, _ := bootFromSnapshots(t, snapDir, Config{Dir: walDir})
	if err := again.Recover(); err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if st := again.Stats(); st.Replayed != 2 || st.LastSeq != 7 || st.LiveEdges != g0.M()+7 {
		t.Fatalf("restart replayed %d to seq %d with %d live edges; want 2, to 7, with %d", st.Replayed, st.LastSeq, st.LiveEdges, g0.M()+7)
	}
}
