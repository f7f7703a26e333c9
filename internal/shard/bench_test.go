package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/shard"
)

// The sweep fixture: one serving-scale index shared by every shard
// count, so the K axis is the only thing that varies.
const benchN, benchRank = 20000, 16

var (
	benchOnce sync.Once
	benchIx   *core.Index
	benchErr  error
)

func benchIndex(b *testing.B) *core.Index {
	b.Helper()
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(7))
		edges := make([][2]int, 0, 5*benchN)
		for i := 0; i < benchN; i++ {
			edges = append(edges, [2]int{i, (i + 1) % benchN})
			for e := 0; e < 4; e++ {
				edges = append(edges, [2]int{rng.Intn(benchN), rng.Intn(benchN)})
			}
		}
		g, err := csrplus.NewGraph(benchN, edges)
		if err != nil {
			benchErr = err
			return
		}
		eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: benchRank})
		if err != nil {
			benchErr = err
			return
		}
		ix, ok := eng.CoreIndex()
		if !ok {
			benchErr = fmt.Errorf("CSR+ engine without a core index")
			return
		}
		benchIx = ix
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchIx
}

// BenchmarkRouterTopKShardSweep measures the full scatter–gather top-k
// path (per-shard partial selection + global merge), the shape a wire
// split would ship between processes: no n x |Q| matrix is ever
// assembled on one allocation larger than a shard.
//
//	go test -run='^$' -bench=RouterTopKShardSweep -benchtime=20x ./internal/shard/
func BenchmarkRouterTopKShardSweep(b *testing.B) {
	ix := benchIndex(b)
	queries := []int{17, 4211, 9973, 13007, 19999, 512, 7777, 15000}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			rt, err := shard.NewRouterFromIndex(ix, k)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.TopK(context.Background(), queries, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
