package core

// Reload-latency benchmark behind BENCH_snapshot.json: the verified map of
// the layout that is written (v4), at two index sizes. It walks the factor
// bytes once for the CRC pass but allocates nothing for them.

import (
	"fmt"
	"path/filepath"
	"testing"

	"csrplus/internal/dense"
)

// synthBenchIndex builds an exact-tier index with a deterministic
// pseudo-random factor directly — Precompute cost would dwarf the load
// path under measurement, and the load path never looks at the values.
func synthBenchIndex(n, rank int) *Index {
	f := dense.NewMat(n, rank)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range f.Data {
		state = state*6364136223846793005 + 1442695040888963407
		f.Data[i] = float64(int64(state>>17)%2000-1000) / 1000
	}
	sigma := make([]float64, rank)
	for i := range sigma {
		sigma[i] = float64(rank-i) * 0.5
	}
	return &Index{IndexShard: IndexShard{n: n, hi: n, c: 0.8, rank: rank, f: dense.TypedFromMat(f)}, iters: 8, sigma: sigma}
}

func BenchmarkSnapshotLoadMapVerified(b *testing.B) {
	for _, n := range []int{2500, 20000} {
		path := filepath.Join(b.TempDir(), "ix.csrx")
		if err := SaveIndex(synthBenchIndex(n, 16), path); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			probe, err := LoadIndex(path)
			if err != nil {
				b.Fatal(err)
			}
			mapped := probe.Mapped()
			probe.Close()
			if !mapped {
				b.Skip("mmap unavailable on this platform; the file loads via the decode fallback")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := LoadIndex(path)
				if err != nil {
					b.Fatal(err)
				}
				ix.Close()
			}
		})
	}
}
