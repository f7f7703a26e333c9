package wire_test

import (
	"context"
	"math"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/topk"
	"csrplus/internal/wire"
)

// remoteFixture is one shard worker behind an httptest listener, the
// RemoteEngine dialed to it, and the in-process shard it serves — the
// reference a remote answer is held to.
type remoteFixture struct {
	engine  *wire.RemoteEngine
	shard   *core.IndexShard
	queries []int
	uq      *dense.Mat
}

const remoteK = 10

func newRemoteFixture(tb testing.TB) remoteFixture {
	tb.Helper()
	_, ix := testEngineIndex(tb, 1)
	servers, shards := startWorkers(tb, ix, 1)
	engines, _ := dialAll(tb, servers, testOptions())
	queries := []int{7}
	return remoteFixture{
		engine:  engines[0],
		shard:   shards[0],
		queries: queries,
		uq:      dense.NewMatFrom(1, tRank, append([]float64(nil), shards[0].URow(queries[0])...)),
	}
}

// Test_RemoteEnginePartialTopK holds one RemoteEngine.PartialTopK — one
// HTTP round trip — to the worker's own in-process answer, bit for bit,
// and logs what a call costs the client in allocations.
func Test_RemoteEnginePartialTopK(t *testing.T) {
	f := newRemoteFixture(t)
	ctx := context.Background()
	want, err := f.shard.PartialTopK(ctx, f.queries, f.uq, remoteK)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.engine.PartialTopK(ctx, f.queries, f.uq, remoteK, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d items over the wire, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d: got (%d, %x), want (%d, %x)", i,
				got[i].Node, math.Float64bits(got[i].Score), want[i].Node, math.Float64bits(want[i].Score))
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.engine.PartialTopK(ctx, f.queries, f.uq, remoteK, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per RemoteEngine.PartialTopK (client and httptest worker together)", allocs)
	if st := f.engine.Stats(); st.Errors != 0 || st.Retries != 0 {
		t.Fatalf("healthy worker: %+v", st)
	}
}

// Benchmark_RemoteEnginePartialTopK prices one shard call on
// Test_RemoteEnginePartialTopK's fixture: encode, one loopback HTTP round
// trip, the worker's scan, decode.
//
//	go test -run='^$' -bench=_RemoteEnginePartialTopK -benchmem ./internal/wire/
func Benchmark_RemoteEnginePartialTopK(b *testing.B) {
	f := newRemoteFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := f.engine.PartialTopK(ctx, f.queries, f.uq, remoteK, 0)
		if err != nil {
			b.Fatal(err)
		}
		remoteSink = items
	}
}

var remoteSink []topk.Item
