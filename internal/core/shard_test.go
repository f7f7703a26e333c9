package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
)

// bigIndex builds an index over a graph large enough that shard
// boundaries cut through real structure.
func bigIndex(t *testing.T, n int, rank int) *Index {
	t.Helper()
	g, err := graph.ErdosRenyi(n, int64(4*n), 42)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Precompute(g, Options{Rank: rank})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// denseF64 returns the exact tier's factor with a row for every node of
// [lo, hi): the stored matrix itself under the identity map, else a copy
// with the stored rows spread over zeros.
func (sh *IndexShard) denseF64() *dense.Mat {
	f := sh.f.Mat()
	if sh.ids == nil {
		return f
	}
	out := dense.NewMat(sh.Rows(), sh.rank)
	for i, id := range sh.ids {
		copy(out.Row(int(id)-sh.lo), f.Row(i))
	}
	return out
}

// gatherQueryRows assembles the |Q| x r broadcast matrix of F rows the
// router would gather before fanning out.
func gatherQueryRows(t *testing.T, shards []*IndexShard, queries []int) *dense.Mat {
	t.Helper()
	uq := dense.NewMat(len(queries), shards[0].Rank())
	for j, q := range queries {
		for _, sh := range shards {
			if sh.Owns(q) {
				copy(uq.Row(j), sh.URow(q))
			}
		}
	}
	return uq
}

// Stitching every shard's PartialInto band together must reproduce the
// monolithic QueryRankInto answer bitwise, at any boundary placement.
func TestShardPartialIntoMatchesQueryInto(t *testing.T) {
	const n, r = 97, 6
	ix := bigIndex(t, n, r)
	queries := []int{0, 13, 52, 96}
	cuts := [][]int{
		{0, n},                     // K=1
		{0, 48, n},                 // K=2, near-even
		{0, 1, 2, n},               // tiny leading shards
		{0, 30, 31, 90, n},         // uneven
		{0, 13, 14, 52, 53, 96, n}, // boundaries on query nodes
	}
	want, err := ix.QueryRankInto(context.Background(), queries, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bounds := range cuts {
		shards := make([]*IndexShard, len(bounds)-1)
		for s := range shards {
			if shards[s], err = ix.Shard(bounds[s], bounds[s+1]); err != nil {
				t.Fatal(err)
			}
		}
		uq := gatherQueryRows(t, shards, queries)
		got := dense.NewMat(n, len(queries))
		cols := len(queries)
		for _, sh := range shards {
			band := &dense.Mat{Rows: sh.Rows(), Cols: cols, Data: got.Data[sh.Lo()*cols : sh.Hi()*cols]}
			if err := sh.PartialInto(context.Background(), queries, uq, 0, band); err != nil {
				t.Fatal(err)
			}
		}
		if !got.Equal(want, 0) {
			t.Fatalf("cuts=%v: stitched shard answer differs from monolithic", bounds)
		}
	}
}

func TestShardRangeValidation(t *testing.T) {
	ix := buildIndex(t)
	for _, bad := range [][2]int{{-1, 3}, {0, 7}, {3, 3}, {4, 2}} {
		if _, err := ix.Shard(bad[0], bad[1]); !errors.Is(err, ErrParams) {
			t.Fatalf("Shard(%d, %d): err = %v, want ErrParams", bad[0], bad[1], err)
		}
	}
	sh, err := ix.Shard(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sh.N() != ix.N() || sh.Lo() != 2 || sh.Hi() != 5 || sh.Rows() != 3 {
		t.Fatalf("shard metadata = n=%d [%d,%d) rows=%d", sh.N(), sh.Lo(), sh.Hi(), sh.Rows())
	}
	if !sh.Owns(2) || !sh.Owns(4) || sh.Owns(1) || sh.Owns(5) {
		t.Fatal("Owns misreports the range")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("URow outside the shard range did not panic")
		}
	}()
	sh.URow(0)
}

func TestShardPartialIntoRejectsBadShapes(t *testing.T) {
	ix := buildIndex(t)
	sh, err := ix.Shard(0, ix.N())
	if err != nil {
		t.Fatal(err)
	}
	queries := []int{1, 3}
	uq := gatherQueryRows(t, []*IndexShard{sh}, queries)
	out := dense.NewMat(ix.N(), len(queries))
	if err := sh.PartialInto(context.Background(), nil, uq, 0, out); !errors.Is(err, ErrParams) {
		t.Fatalf("empty queries: err = %v", err)
	}
	if err := sh.PartialInto(context.Background(), queries, dense.NewMat(1, sh.Rank()), 0, out); !errors.Is(err, ErrParams) {
		t.Fatalf("wrong uq shape: err = %v", err)
	}
	if err := sh.PartialInto(context.Background(), queries, uq, 0, dense.NewMat(2, 2)); !errors.Is(err, ErrParams) {
		t.Fatalf("wrong out shape: err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sh.PartialInto(ctx, queries, uq, 0, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}
}

// ScoreBound over the per-shard ColMaxes combined must reproduce the
// whole index's bits at every cut — max over a column is the max of the
// per-shard maxima — and bound the product term of every score.
func TestScoreBoundCutInvariant(t *testing.T) {
	const n, r = 97, 6
	ix := bigIndex(t, n, r)
	want := ScoreBound(ix.Damping(), ix.ColMaxes())
	for _, bounds := range [][]int{{0, n}, {0, 48, n}, {0, 1, 2, n}, {0, 30, 31, 90, n}} {
		fmax := make([]float64, r)
		for s := 0; s < len(bounds)-1; s++ {
			sh, err := ix.Shard(bounds[s], bounds[s+1])
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range sh.ColMaxes() {
				fmax[j] = math.Max(fmax[j], v)
			}
		}
		if got := ScoreBound(ix.Damping(), fmax); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cuts=%v: combined bound %v != whole index's %v", bounds, got, want)
		}
	}
	queries := []int{0, 13, 52, 96}
	s, err := ix.Query(queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j, q := range queries {
			v := s.At(i, j)
			if i == q {
				v-- // the identity's +1
			}
			if math.Abs(v) > want {
				t.Fatalf("S[%d, %d] - I = %v exceeds ScoreBound %v", i, q, v, want)
			}
		}
	}
}

func TestShardRoundTrip(t *testing.T) {
	ix := buildIndex(t)
	sh, err := ix.Shard(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wrote, err := sh.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != int64(buf.Len()) {
		t.Fatalf("WriteToV2 reported %d bytes, wrote %d", wrote, buf.Len())
	}
	back, err := ReadShard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != sh.N() || back.Lo() != sh.Lo() || back.Hi() != sh.Hi() ||
		back.Rank() != sh.Rank() || back.Damping() != sh.Damping() {
		t.Fatalf("metadata mismatch: %+v vs %+v", back, sh)
	}
	queries := []int{1, 3}
	uq := gatherQueryRows(t, []*IndexShard{func() *IndexShard {
		full, _ := ix.Shard(0, ix.N())
		return full
	}()}, queries)
	want := dense.NewMat(sh.Rows(), len(queries))
	got := dense.NewMat(sh.Rows(), len(queries))
	if err := sh.PartialInto(context.Background(), queries, uq, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := back.PartialInto(context.Background(), queries, uq, 0, got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatal("deserialised shard answers differently")
	}
}

func TestReadShardRejectsCorruption(t *testing.T) {
	good := golden(t, goldenShardV5(dense.F64))

	check := func(name string, raw []byte) {
		t.Helper()
		if _, err := ReadShard(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	check("bad magic", bad)
	check("truncated header", good[:10])
	check("truncated payload", good[:len(good)-20])
	bad = append([]byte(nil), good...)
	bad[len(bad)-pageSize/2] ^= 0xFF
	check("flipped payload byte", bad)
}

func TestShardSnapshotDirRoundTrip(t *testing.T) {
	ix := buildIndex(t)
	sh, err := ix.Shard(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := ShardDir(t.TempDir(), 2)
	for want := uint64(1); want <= 2; want++ {
		gen, path, err := WriteShardSnapshot(dir, sh)
		if err != nil {
			t.Fatal(err)
		}
		if gen != want {
			t.Fatalf("generation %d, want %d", gen, want)
		}
		if filepath.Dir(path) != dir {
			t.Fatalf("snapshot path %s outside shard dir %s", path, dir)
		}
	}
	back, snap, recovered, err := RecoverShardSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered || snap.Gen != 2 {
		t.Fatalf("recovered=%v gen=%d, want a clean gen 2", recovered, snap.Gen)
	}
	if back.Lo() != sh.Lo() || back.Hi() != sh.Hi() {
		t.Fatalf("recovered range [%d,%d), want [%d,%d)", back.Lo(), back.Hi(), sh.Lo(), sh.Hi())
	}

	// A truncated newest generation: recovery falls back to the newest
	// loadable snapshot and says so.
	back.Close()
	if err := os.Truncate(filepath.Join(dir, SnapshotName(2)), 100); err != nil {
		t.Fatal(err)
	}
	_, snap, recovered, err = RecoverShardSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !recovered || snap.Gen != 1 || snap.Skipped == nil {
		t.Fatalf("truncated generation 2: recovered=%v gen=%d skipped=%v, want recovered gen 1", recovered, snap.Gen, snap.Skipped)
	}

	if _, _, _, err := RecoverShardSnapshot(t.TempDir()); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: err = %v, want ErrNoSnapshot", err)
	}
}

// TestLoadShardReadsIntoOneBuffer holds the decode path of a snapshot file
// (what LoadShard falls back to where it cannot map) to one image-sized
// read buffer: it may allocate the image and its decoded factors, about
// twice the file, where growing a buffer through io.ReadAll cost seven
// times it — most of a decoding boot's heap. The file's length comes from the file system, so a file cut short or grown
// after it was written is still ErrCorrupt, by the length its own header
// records.
func TestLoadShardReadsIntoOneBuffer(t *testing.T) {
	sh, err := bigIndex(t, 20000, 16).Shard(0, 20000)
	if err != nil {
		t.Fatal(err)
	}
	path := writeShardFile(t, sh)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	back, err := shardFileOf(decodeFile(path, shardKind)) // what LoadShard falls back to where it cannot map
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	wantSameFactors(t, "loaded shard", back.IndexShard, sh)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(5*len(raw)/2); got > limit {
		t.Fatalf("LoadShard of a %d-byte file allocated %d bytes, want at most %d (image + decoded factors)", len(raw), got, limit)
	}

	for name, data := range map[string][]byte{
		"cut short": raw[:len(raw)-pageSize],
		"grown":     append(append([]byte(nil), raw...), make([]byte, pageSize)...),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeFile(path, shardKind); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: decode err = %v, want ErrCorrupt", name, err)
		}
		if _, err := LoadShard(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
