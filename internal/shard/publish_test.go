package shard_test

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/shard"
)

// TestPublishSnapshots holds the one publisher of per-shard snapshot
// directories: what it writes under root/shard-<s>/ recovers into a router
// that answers like the index it was cut from; however often it publishes,
// each directory holds at most core.KeepSnapshots generations, the newest
// the last published; and a shard count the index cannot be cut into is refused.
func TestPublishSnapshots(t *testing.T) {
	eng, ix := testEngineIndex(t, 1)
	const k = 3
	root := t.TempDir()
	for publish := 1; publish <= core.KeepSnapshots+3; publish++ {
		if err := shard.PublishSnapshots(root, ix, k); err != nil {
			t.Fatal(err)
		}
		shards := make([]*core.IndexShard, k)
		for s := range shards {
			dir := core.ShardDir(root, s)
			snaps, err := filepath.Glob(filepath.Join(dir, "index-*.csrx"))
			if err != nil {
				t.Fatal(err)
			}
			if want := min(publish, core.KeepSnapshots); len(snaps) != want {
				t.Fatalf("%s holds %d generations after %d publishes, want %d", dir, len(snaps), publish, want)
			}
			sh, snap, recovered, err := core.RecoverShardSnapshot(dir)
			if err != nil || recovered || snap.Gen != uint64(publish) {
				t.Fatalf("%s: generation %d (recovered=%v, err=%v), want a clean %d", dir, snap.Gen, recovered, err, publish)
			}
			t.Cleanup(func() { sh.Close() })
			shards[s] = sh.IndexShard
		}
		if publish > 1 && publish < core.KeepSnapshots+3 {
			continue // the answers are checked on the first and the last
		}
		rt, err := shard.NewRouter(shards)
		if err != nil {
			t.Fatal(err)
		}
		assertRouterMatches(t, rt, eng, ix)
	}
	for _, bad := range []int{-1, 0, testN + 1} {
		if err := shard.PublishSnapshots(t.TempDir(), ix, bad); !errors.Is(err, shard.ErrPlan) {
			t.Fatalf("PublishSnapshots(k=%d): err = %v, want ErrPlan", bad, err)
		}
	}
}

// TestCompactedIndexAnswersLikeDenseV2 is the router-level half of the
// compacted format: one index, as the file that stores every row (twelve of
// the 48 all zero) and compacted to the 36 rows it can score, answers TopK and
// Scores with the same bits behind K = 1, 2, 3 and 7 even slots and behind a
// cut whose slots [3, 4) and [47, 48) store no row at all — for sources,
// targets and excluded nodes among the rows left out, and for k up to, at
// and past the rows stored. cmd/csrserver holds the same requests' bodies at
// K = 1 and over wire workers.
func TestCompactedIndexAnswersLikeDenseV2(t *testing.T) {
	const n, stored = 48, 36
	dense, err := core.LoadIndex("../core/testdata/index.v5-sparse.csrx")
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	compact, err := core.LoadIndex("../core/testdata/index.v5-compact.csrx")
	if err != nil {
		t.Fatal(err)
	}
	defer compact.Close()
	if dense.Stored() != n || compact.Stored() != stored {
		t.Fatalf("fixtures store %d and %d rows: want %d and %d", dense.Stored(), compact.Stored(), n, stored)
	}
	ref, err := shard.NewRouterFromIndex(dense, 1)
	if err != nil {
		t.Fatal(err)
	}
	var routers []*shard.Router
	for _, k := range shardCounts(t) {
		for _, ix := range []*core.Index{dense, compact} {
			rt, err := shard.NewRouterFromIndex(ix, k)
			if err != nil {
				t.Fatal(err)
			}
			routers = append(routers, rt)
		}
	}
	var uneven []*core.IndexShard
	for _, cut := range [][2]int{{0, 3}, {3, 4}, {4, 47}, {47, 48}} {
		sh, err := compact.Shard(cut[0], cut[1])
		if err != nil {
			t.Fatal(err)
		}
		if empty := cut[1]-cut[0] == 1; empty != (sh.Stored() == 0) {
			t.Fatalf("slot [%d, %d) stores %d rows", cut[0], cut[1], sh.Stored())
		}
		uneven = append(uneven, sh)
	}
	rt, err := shard.NewRouter(uneven)
	if err != nil {
		t.Fatal(err)
	}
	routers = append(routers, rt)

	ctx := context.Background()
	targets := []int{0, 3, 7, 8, 16, 46, 47}
	// 3, 7, 11 and 47 are left out; 0, 8, 16 and 46 are stored.
	for _, queries := range [][]int{{0}, {3}, {47}, {8, 16}, {3, 8, 47, 8}, {3, 7, 11}, {46, 0, 3}} {
		for _, k := range []int{1, 5, stored - 1, stored, stored + 1, n} {
			want, err := ref.TopK(ctx, queries, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, rt := range routers {
				got, err := rt.TopK(ctx, queries, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("K=%d queries=%v k=%d: %d items, want %d", rt.K(), queries, k, len(got), len(want))
				}
				for i := range want {
					if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("K=%d queries=%v k=%d item %d: %+v, want %+v", rt.K(), queries, k, i, got[i], want[i])
					}
				}
			}
		}
		want, err := ref.Scores(ctx, queries, targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range routers {
			got, err := rt.Scores(ctx, queries, targets)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("K=%d queries=%v: score %d = %v, want %v", rt.K(), queries, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
