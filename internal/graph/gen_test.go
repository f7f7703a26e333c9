package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"csrplus/internal/sparse"
)

// refEdgeSet is the duplicate filter ErdosRenyi and RMAT drew through until
// PR 24: an insert-only open-addressed set of edge keys u*n + v. It and the
// two loops below are those generators' bodies as they stood, kept as the
// oracle distinctEdges is held to: one attempt at a time, each asked whether
// it is new, the kept ones handed to COO.ToCSR in draw order.
type refEdgeSet struct {
	slots []int64 // key + 1; 0 is an empty slot
	shift uint
}

func newRefEdgeSet(capacity int64) *refEdgeSet {
	bits := uint(4)
	for uint64(1)<<bits < 2*uint64(capacity) {
		bits++
	}
	return &refEdgeSet{slots: make([]int64, uint64(1)<<bits), shift: 64 - bits}
}

func (s *refEdgeSet) add(key int64) bool {
	mask := len(s.slots) - 1
	for i := int(uint64(key) * 0x9E3779B97F4A7C15 >> s.shift); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key + 1
			return true
		case key + 1:
			return false
		}
	}
}

func refErdosRenyi(n int, m int64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n)
	seen := newRefEdgeSet(m)
	for int64(coo.NNZ()) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || !seen.add(int64(u)*int64(n)+int64(v)) {
			continue
		}
		if err := coo.Add(u, v, 1); err != nil {
			panic(err)
		}
	}
	return New(coo)
}

func refRMAT(scale int, m int64, p RMATParams, seed int64) *Graph {
	sum := p.A + p.B + p.C + p.D
	n := 1 << scale
	src := rand.NewSource(seed)
	coo := sparse.NewCOO(n, n)
	seen := newRefEdgeSet(m)
	attempts := int64(0)
	maxAttempts := 20 * m
	ab := p.A + p.B
	abc := ab + p.C
	for int64(coo.NNZ()) < m && attempts < maxAttempts {
		attempts++
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			f := float64(src.Int63()) / (1 << 63)
			for f == 1 {
				f = float64(src.Int63()) / (1 << 63)
			}
			r, q := f*sum, 0
			if r >= p.A {
				q++
			}
			if r >= ab {
				q++
			}
			if r >= abc {
				q++
			}
			u, v = u<<1|q>>1, v<<1|q&1
		}
		if u == v || !seen.add(int64(u)*int64(n)+int64(v)) {
			continue
		}
		if err := coo.Add(u, v, 1); err != nil {
			panic(err)
		}
	}
	return New(coo)
}

// distinctEdgesCase is one request of the fixture table Test_DistinctEdges,
// Benchmark_DistinctEdges and FuzzDistinctEdges share: an R-MAT one when
// scale > 0, else G(n, m).
type distinctEdgesCase struct {
	name  string
	scale int // R-MAT
	n     int // Erdős–Rényi
	m     int64
	p     RMATParams
	seed  int64
	// short marks a request whose attempts run out before m edges are found.
	short bool
	bench bool
}

func (tc distinctEdgesCase) generate() (*Graph, error) {
	if tc.scale > 0 {
		return RMAT(tc.scale, tc.m, tc.p, tc.seed)
	}
	return ErdosRenyi(tc.n, tc.m, tc.seed)
}

func (tc distinctEdgesCase) reference() *Graph {
	if tc.scale > 0 {
		return refRMAT(tc.scale, tc.m, tc.p, tc.seed)
	}
	return refErdosRenyi(tc.n, tc.m, tc.seed)
}

var distinctEdgesCases = func() []distinctEdgesCase {
	cases := []distinctEdgesCase{
		{name: "ER n=2 m=0", n: 2, m: 0, seed: 1},
		{name: "ER n=2 every edge", n: 2, m: 2, seed: 2},
		// Every one of the n(n-1) edges: the deficit shrinks to rounds of a
		// single attempt long before the last edge turns up.
		{name: "ER n=6 every edge", n: 6, m: 30, seed: 3},
		{name: "ER n=40 three quarters full", n: 40, m: 1170, seed: 4},
		{name: "ER n=1000 m=8000", n: 1000, m: 8000, seed: 7},
		{name: "ER n=22687 m=54705", n: 22687, m: 54705, seed: 102, bench: true}, // P2P
		// 56 requested of the 56 there are, 1120 attempts at this skew: the
		// attempt cap ends the loop short.
		{name: "R-MAT scale 3 exhausts its attempts", scale: 3, m: 56, p: DefaultRMAT, seed: 5, short: true},
		{name: "R-MAT scale 1 exhausts its attempts", scale: 1, m: 2, p: RMATParams{A: 0.97, B: 0.01, C: 0.01, D: 0.01}, seed: 6, short: true},
		// More than n(n-1)/2 edges of a directed graph (refused until PR 24).
		{name: "R-MAT scale 3 m=40", scale: 3, m: 40, p: RMATParams{A: 0.25, B: 0.25, C: 0.25, D: 0.25}, seed: 8},
		{name: "R-MAT quadrants sum to 0.99", scale: 9, m: 4000, p: RMATParams{A: 0.45, B: 0.22, C: 0.22, D: 0.10}, seed: 11},
		{name: "R-MAT scale 17 m=251070", scale: 17, m: 251070, p: DefaultRMAT, seed: 104, bench: true}, // WT
	}
	for scale := 3; scale <= 16; scale++ {
		cases = append(cases, distinctEdgesCase{
			name: fmt.Sprintf("R-MAT scale %d", scale), scale: scale, m: int64(3) << scale / 2, p: DefaultRMAT, seed: int64(200 + scale),
		})
	}
	return cases
}()

// checkDistinctEdges holds the generated graph to the reference's: the same
// adjacency array for array, which is also what TestDatasetDigests hashes.
func checkDistinctEdges(t *testing.T, tc distinctEdgesCase) {
	t.Helper()
	g, err := tc.generate()
	if err != nil {
		t.Fatal(err)
	}
	ref := tc.reference()
	got, want := g.Adj(), ref.Adj()
	if gr, gc := got.Dims(); gr != ref.N() || gc != ref.N() {
		t.Fatalf("shape %dx%d, want %d square", gr, gc, ref.N())
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) || !slices.Equal(got.Val, want.Val) {
		t.Fatalf("adjacency differs from the one-attempt-at-a-time reference (m=%d, reference m=%d)", got.NNZ(), want.NNZ())
	}
	if short := got.NNZ() < tc.m; short != tc.short {
		t.Fatalf("%d of %d edges: ran short = %v, want %v", got.NNZ(), tc.m, short, tc.short)
	}
}

func Test_DistinctEdges(t *testing.T) {
	for _, tc := range distinctEdgesCases {
		t.Run(tc.name, func(t *testing.T) { checkDistinctEdges(t, tc) })
	}
}

// Benchmark_DistinctEdges prices the sorted rounds against the hash set, the
// triples and COO.ToCSR on the table's dataset-sized requests.
func Benchmark_DistinctEdges(b *testing.B) {
	for _, tc := range distinctEdgesCases {
		if !tc.bench {
			continue
		}
		perOp := func(b *testing.B) {
			b.ReportMetric(float64(tc.m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		}
		b.Run(tc.name+"/rounds", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := tc.generate()
				if err != nil {
					b.Fatal(err)
				}
				sinkGraph = g
			}
			perOp(b)
		})
		b.Run(tc.name+"/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkGraph = tc.reference()
			}
			perOp(b)
		})
	}
}

var sinkGraph *Graph

// FuzzDistinctEdges draws small requests of either kind — any density up to
// every edge, any skew the parameter check lets through — and holds them to
// the reference.
func FuzzDistinctEdges(f *testing.F) {
	for _, tc := range distinctEdgesCases {
		if tc.scale > 6 || tc.n > 64 {
			continue
		}
		f.Add(uint8(tc.scale), uint8(tc.n), uint16(tc.m), uint8(100*tc.p.A), uint8(100*tc.p.B), uint8(100*tc.p.C), tc.seed)
	}
	f.Fuzz(func(t *testing.T, scale, n uint8, m uint16, a, b, c uint8, seed int64) {
		tc := distinctEdgesCase{scale: int(scale % 7), n: 2 + int(n%63), seed: seed}
		nodes := int64(tc.n)
		if tc.scale > 0 {
			nodes = 1 << tc.scale
			tc.p = RMATParams{A: float64(1+a%97) / 100, B: float64(1+b%97) / 100, C: float64(1+c%97) / 100}
			if tc.p.D = 1 - tc.p.A - tc.p.B - tc.p.C; tc.p.D < 0.005 {
				return
			}
		}
		tc.m = int64(m) % (nodes*(nodes-1) + 1)
		g, err := tc.generate()
		if err != nil {
			t.Fatal(err)
		}
		tc.short = g.M() < tc.m // R-MAT may run short wherever the reference does
		checkDistinctEdges(t, tc)
	})
}
