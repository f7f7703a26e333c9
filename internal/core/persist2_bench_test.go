package core

// Reload-latency benchmarks behind BENCH_snapshot.json: the v1 buffered
// decode against the verified map of the layout that is written (v3), at
// two index sizes. The verified map walks the factor bytes once for the CRC
// pass but allocates nothing for them; the v1 decode pays one heap copy of
// every factor entry.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"csrplus/internal/dense"
)

// synthBenchIndex builds an exact-tier index with deterministic
// pseudo-random factors directly — Precompute cost would dwarf the load
// path under measurement, and the load path never looks at the values.
func synthBenchIndex(n, rank int) *Index {
	z := dense.NewMat(n, rank)
	u := dense.NewMat(n, rank)
	state := uint64(0x9E3779B97F4A7C15)
	fill := func(m *dense.Mat) {
		for i := range m.Data {
			state = state*6364136223846793005 + 1442695040888963407
			m.Data[i] = float64(int64(state>>17)%2000-1000) / 1000
		}
	}
	fill(z)
	fill(u)
	sigma := make([]float64, rank)
	for i := range sigma {
		sigma[i] = float64(rank-i) * 0.5
	}
	return &Index{IndexShard: IndexShard{n: n, hi: n, c: 0.8, rank: rank, z: dense.TypedFromMat(z), u: dense.TypedFromMat(u)}, iters: 8, sigma: sigma}
}

// benchLoadFiles writes one v1 and one v3 file per size and hands the
// paths to each sub-benchmark.
func benchLoadFiles(b *testing.B, load func(b *testing.B, v1, v3 string)) {
	b.Helper()
	for _, n := range []int{2500, 20000} {
		ix := synthBenchIndex(n, 16)
		dir := b.TempDir()
		v1 := filepath.Join(dir, "v1.csrx")
		if err := os.WriteFile(v1, v1IndexBytes(ix), 0o644); err != nil {
			b.Fatal(err)
		}
		v3 := filepath.Join(dir, "v3.csrx")
		if err := SaveIndex(ix, v3); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { load(b, v1, v3) })
	}
}

func BenchmarkSnapshotLoadV1Decode(b *testing.B) {
	benchLoadFiles(b, func(b *testing.B, v1, _ string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := LoadIndex(v1)
			if err != nil {
				b.Fatal(err)
			}
			ix.Close()
		}
	})
}

func BenchmarkSnapshotLoadV3MapVerified(b *testing.B) {
	benchLoadFiles(b, func(b *testing.B, _, v3 string) {
		probe, err := LoadIndex(v3)
		if err != nil {
			b.Fatal(err)
		}
		mapped := probe.Mapped()
		probe.Close()
		if !mapped {
			b.Skip("mmap unavailable on this platform; v3 loads via the decode fallback")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix, err := LoadIndex(v3)
			if err != nil {
				b.Fatal(err)
			}
			ix.Close()
		}
	})
}
