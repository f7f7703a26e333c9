package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// structureDigest is sha256 over RowPtr (int64 LE) ‖ ColIdx (int32 LE):
// the whole structure of an unweighted graph, whose values are all 1.
func structureDigest(g *Graph) string {
	adj := g.Adj()
	h := sha256.New()
	_ = binary.Write(h, binary.LittleEndian, adj.RowPtr)
	_ = binary.Write(h, binary.LittleEndian, adj.ColIdx)
	return hex.EncodeToString(h.Sum(nil))
}

// TestDatasetDigests pins the generated graphs. They are the fixture every
// committed number and every csrload reference check stands on, so a change
// to a generator's draw loop, its duplicate filter or COO.ToCSR must leave
// them bit for bit where they were. Every digest was taken on the commit
// before the generators left map[int64]bool and rand.Rand.Float64 behind
// (PR 20), with the sort.Slice ToCSR; none may be edited to make a change
// pass.
func TestDatasetDigests(t *testing.T) {
	dataset := func(key string, scale int64) func() (*Graph, error) {
		return func() (*Graph, error) {
			d, err := DatasetByKey(key)
			if err != nil {
				return nil, err
			}
			if scale == 0 {
				return d.Generate()
			}
			return d.GenerateScaled(scale)
		}
	}
	for _, tc := range []struct {
		name   string
		gen    func() (*Graph, error)
		n      int
		m      int64
		digest string
	}{
		{"FB", dataset("FB", 0), 4039, 88726, "2383c4e3fa9919600fc1492c1e93b99904f108ea89dc831dc4d721c122c678d8"},
		{"P2P", dataset("P2P", 0), 22687, 54705, "9bc4822d009d928617027d1c453ce615178b765fc431206e6c27a4465eac35c0"},
		{"YT", dataset("YT", 0), 65536, 298762, "86fefa88897bf4deac56bb621b616efe30d4af5ee06443b7a4c05416255a29db"},
		{"WT", dataset("WT", 0), 131072, 251070, "bb5a43fe61e672f95aa9ee5d9306225ff5cba227785e54a93e95faf1c7935cd8"},
		// TW and WB at 8x their default downscale: the default is millions of edges.
		{"TW/3200", dataset("TW", 3200), 16384, 458864, "2ebf2177cdd7f8fedec4b2d5bdc63938daa9e39b6edbe340500ee232de992bb8"},
		{"WB/3200", dataset("WB", 3200), 65536, 318719, "e4b543373d1e8b6dcfa6b4202721810b1e27c85ad56c72596542dc4ae3fd2762"},
		// csrload -smoke's graph.
		{"WT/1200", dataset("WT", 1200), 2048, 4184, "7517cd79767cdf35093e123aa50e85120fe6b4bf40fc7206d481aaef01e2a320"},
		// One direct call per generator, at seeds no dataset uses. The second
		// R-MAT call has quadrants that sum to 0.99, so the draw is scaled.
		{"ErdosRenyi", func() (*Graph, error) { return ErdosRenyi(1000, 8000, 7) }, 1000, 8000, "a14b67b5479ea8b6ca41c9ba9a850a3f7a1d6d88e58b1b1eef87466f52a9e963"},
		{"BarabasiAlbert", func() (*Graph, error) { return BarabasiAlbert(500, 4, 8) }, 500, 3980, "3a4a3eb04fb8a9268d47819254e6c0802f8ee9d2c087ec77a8f5e921783755f2"},
		{"WattsStrogatz", func() (*Graph, error) { return WattsStrogatz(400, 3, 0.2, 9) }, 400, 2400, "809685d3c1fd23bcba6ed1c6f275134392446173216ff0b522aac38ef333272e"},
		{"RMAT", func() (*Graph, error) { return RMAT(12, 30000, DefaultRMAT, 10) }, 4096, 30000, "f139fe49ad4b968a53b9fbdbceef09070f90a0ff5e54829c42216a630331a996"},
		{"RMAT/sum<1", func() (*Graph, error) { return RMAT(9, 4000, RMATParams{A: 0.45, B: 0.22, C: 0.22, D: 0.10}, 11) }, 512, 4000, "88f3ff31c1b0e8c26834e3cea7152732b45caf1c4b0ce103a3ff88a095176f9a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			if got := structureDigest(g); g.N() != tc.n || g.M() != tc.m || got != tc.digest {
				t.Fatalf("n=%d m=%d digest %s, want n=%d m=%d digest %s", g.N(), g.M(), got, tc.n, tc.m, tc.digest)
			}
		})
	}
}

// BenchmarkDatasetWT prices the graph stage of a csrload cold boot: the WT
// stand-in's R-MAT draws, deduplicated by sorted rounds straight into CSR
// (Benchmark_DistinctEdges has the same request beside the hash set, the
// triples and COO.ToCSR it replaced).
func BenchmarkDatasetWT(b *testing.B) {
	d, err := DatasetByKey("WT")
	if err != nil {
		b.Fatal(err)
	}
	var edges int64
	for i := 0; i < b.N; i++ {
		g, err := d.Generate()
		if err != nil {
			b.Fatal(err)
		}
		edges += g.M()
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
}
