package serve

import (
	"context"
	"testing"

	"csrplus/internal/topk"
)

// BenchmarkSearchHotPath measures the full per-request serving path —
// admission, the pin and the slot, the engine call, tagging — over a
// trivial direct generation, so the framework itself (including the
// fault-injection hook before every engine call) is what is timed. Run it
// with and without -tags faultinject to confirm the instrumentation is
// free in production builds and within noise when compiled in but
// unarmed:
//
//	go test -run='^$' -bench=SearchHotPath ./internal/serve/
//	go test -run='^$' -bench=SearchHotPath -tags faultinject ./internal/serve/
func BenchmarkSearchHotPath(b *testing.B) {
	const n = 2048
	items := make([]topk.Item, 10)
	sv := NewRanked(
		Ranked{N: n, TopK: func(context.Context, []int, int, int) ([]topk.Item, TopKProvenance, error) {
			return items, TopKProvenance{}, nil
		}},
		Config{Workers: 1, MaxPending: 64},
	)
	defer sv.Close()

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Search(ctx, []int{i % n}, 10); err != nil {
			b.Fatal(err)
		}
	}
}
