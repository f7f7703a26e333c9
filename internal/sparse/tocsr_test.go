package sparse

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refToCSR is COO.ToCSR as it stood until PR 20 — one reflective sort of
// the triples by (row, col), then a merge of adjacent duplicates — kept as
// the oracle the counting sort is held to. It sorts entries in place.
func refToCSR(rows, cols int, entries []Triple) *CSR {
	sort.Slice(entries, func(a, b int) bool {
		ea, eb := entries[a], entries[b]
		if ea.Row != eb.Row {
			return ea.Row < eb.Row
		}
		return ea.Col < eb.Col
	})
	m := &CSR{rows: rows, cols: cols, RowPtr: make([]int64, rows+1)}
	uniq := 0
	for k := 0; k < len(entries); {
		j := k + 1
		for j < len(entries) && entries[j].Row == entries[k].Row && entries[j].Col == entries[k].Col {
			j++
		}
		uniq++
		k = j
	}
	m.ColIdx = make([]int32, uniq)
	m.Val = make([]float64, uniq)
	pos := 0
	for k := 0; k < len(entries); {
		e := entries[k]
		sum := e.Val
		j := k + 1
		for j < len(entries) && entries[j].Row == e.Row && entries[j].Col == e.Col {
			sum += entries[j].Val
			j++
		}
		m.ColIdx[pos] = int32(e.Col)
		m.Val[pos] = sum
		m.RowPtr[e.Row+1]++
		pos++
		k = j
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// insertionOrderSums is ToCSR's duplicate contract written the plain way:
// a stable sort by (row, col), then every run of one key folded left to
// right — the order its entries were added in. (No map: iteration order
// would make the fuzz target's coverage flicker.)
func insertionOrderSums(entries []Triple) []float64 {
	sorted := slices.Clone(entries)
	slices.SortStableFunc(sorted, func(a, b Triple) int {
		return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
	})
	var sums []float64
	for k, e := range sorted {
		if k > 0 && e.Row == sorted[k-1].Row && e.Col == sorted[k-1].Col {
			sums[len(sums)-1] += e.Val
		} else {
			sums = append(sums, e.Val)
		}
	}
	return sums
}

// rmatTriples draws m distinct off-diagonal entries of a 2^scale square
// matrix by R-MAT quadrant descent at graph.DefaultRMAT's skew, in draw
// order: the shape graph.RMAT hands ToCSR (this package cannot import it).
func rmatTriples(scale, m int, seed int64) []Triple {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool, m)
	out := make([]Triple, 0, m)
	for len(out) < m {
		u, v := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			switch r := rng.Float64(); {
			case r < 0.57:
			case r < 0.76:
				v |= 1 << bit
			case r < 0.95:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		out = append(out, Triple{u, v, 1})
	}
	return out
}

// toCSRCase is one input of the fixture table Test_ToCSR, Benchmark_ToCSR
// and FuzzToCSR share.
type toCSRCase struct {
	name       string
	rows, cols int
	entries    func() []Triple
	// orderSensitive marks a case whose duplicate sums depend on the order
	// they are folded in, which the reference's unstable sort does not fix:
	// its values are held to insertionOrderSums only.
	orderSensitive bool
	bench          bool
}

var toCSRCases = []toCSRCase{
	{name: "empty", rows: 4, cols: 3, entries: func() []Triple { return nil }},
	{name: "no rows", rows: 0, cols: 0, entries: func() []Triple { return nil }},
	{name: "rows with no entries", rows: 6, cols: 6, entries: func() []Triple {
		return []Triple{{4, 1, 2}, {1, 5, 3}, {4, 0, 5}, {1, 0, 7}}
	}},
	{name: "one row holds every entry", rows: 3, cols: 200, entries: func() []Triple {
		rng := rand.New(rand.NewSource(5))
		var out []Triple
		for _, j := range rng.Perm(200) {
			out = append(out, Triple{1, j, rng.NormFloat64()})
		}
		return out
	}},
	{name: "reverse-sorted input", rows: 40, cols: 40, entries: func() []Triple {
		var out []Triple
		for i := 39; i >= 0; i-- {
			for j := 39; j >= 0; j -= 1 + i%3 {
				out = append(out, Triple{i, j, float64(i*40+j) + 0.25})
			}
		}
		return out
	}},
	{name: "2-fold duplicates, distinct weights", rows: 5, cols: 5, entries: func() []Triple {
		return []Triple{{3, 3, 0.1}, {0, 4, 1e16}, {3, 3, 0.7}, {2, 1, 5}, {0, 4, 1}, {0, 0, -3}}
	}},
	{name: "5-fold duplicates, distinct weights", rows: 3, cols: 3, orderSensitive: true, entries: func() []Triple {
		// In insertion order (2, 1) folds to ((((1e16+1)-1e16)+1)+1) = 2;
		// sorted by weight it would fold to 0 or 3.
		return []Triple{{2, 1, 1e16}, {0, 2, 4}, {2, 1, 1}, {2, 1, -1e16}, {2, 0, 9}, {2, 1, 1}, {2, 1, 1}, {0, 2, 0.5}}
	}},
	{name: "long row, 5-fold duplicates", rows: 2, cols: 50, orderSensitive: true, entries: func() []Triple {
		// 250 entries in one row, past sort.Stable's insertion-sort blocks:
		// its merges must keep insertion order among equal columns too.
		rng := rand.New(rand.NewSource(6))
		var out []Triple
		for rep := 0; rep < 5; rep++ {
			for _, j := range rng.Perm(50) {
				out = append(out, Triple{1, j, math.Ldexp(rng.NormFloat64(), rng.Intn(60))})
			}
		}
		return out
	}},
	{name: "sorted input n=131072 m=251070", rows: 1 << 17, cols: 1 << 17, bench: true, entries: func() []Triple {
		out := rmatTriples(17, 251070, 104)
		slices.SortFunc(out, func(a, b Triple) int {
			if a.Row != b.Row {
				return a.Row - b.Row
			}
			return a.Col - b.Col
		})
		return out
	}},
	{name: "R-MAT skew n=131072 m=251070", rows: 1 << 17, cols: 1 << 17, bench: true, entries: func() []Triple {
		return rmatTriples(17, 251070, 104)
	}},
}

func (tc toCSRCase) coo(tb testing.TB) *COO {
	tb.Helper()
	c := NewCOO(tc.rows, tc.cols)
	for _, e := range tc.entries() {
		if err := c.Add(e.Row, e.Col, e.Val); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// checkToCSR holds c.ToCSR() to the reference: the same RowPtr and ColIdx,
// every value the insertion-order fold of its duplicates and — unless the
// fold's order matters — the reference's value bit for bit; and c itself
// untouched.
func checkToCSR(t *testing.T, c *COO, orderSensitive bool) *CSR {
	t.Helper()
	before := slices.Clone(c.entries)
	got := c.ToCSR()
	if !slices.Equal(c.entries, before) {
		t.Fatal("ToCSR reordered the receiver's entries")
	}
	want := refToCSR(c.rows, c.cols, slices.Clone(c.entries))
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("structure differs from the reference:\nRowPtr %v\n  want %v\nColIdx %v\n  want %v", got.RowPtr, want.RowPtr, got.ColIdx, want.ColIdx)
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if fold := insertionOrderSums(c.entries); !slices.EqualFunc(got.Val, fold, sameBits) {
		t.Fatalf("Val %v, want the insertion-order sums %v", got.Val, fold)
	}
	if !orderSensitive && !slices.EqualFunc(got.Val, want.Val, sameBits) {
		t.Fatalf("Val %v, want the reference's %v", got.Val, want.Val)
	}
	if len(got.ColIdx) != cap(got.ColIdx) || len(got.Val) != cap(got.Val) {
		t.Fatalf("merged duplicates left slack: ColIdx %d/%d Val %d/%d", len(got.ColIdx), cap(got.ColIdx), len(got.Val), cap(got.Val))
	}
	return got
}

func Test_ToCSR(t *testing.T) {
	for _, tc := range toCSRCases {
		t.Run(tc.name, func(t *testing.T) { checkToCSR(t, tc.coo(t), tc.orderSensitive) })
	}
}

// Benchmark_ToCSR prices the counting sort against the reference body on
// the table's large cases. The reference sorts in place, so it gets a fresh
// copy of the triples outside the clock each iteration.
func Benchmark_ToCSR(b *testing.B) {
	for _, tc := range toCSRCases {
		if !tc.bench {
			continue
		}
		c := tc.coo(b)
		perOp := func(b *testing.B) {
			b.ReportMetric(float64(len(c.entries))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		}
		b.Run(tc.name+"/counting", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkCSR = c.ToCSR()
			}
			perOp(b)
		})
		b.Run(tc.name+"/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				entries := slices.Clone(c.entries)
				b.StartTimer()
				sinkCSR = refToCSR(c.rows, c.cols, entries)
			}
			perOp(b)
		})
	}
}

var sinkCSR *CSR

// FuzzToCSR decodes (row, col, weight) byte triples onto a small matrix and
// holds ToCSR to the reference. Weights span sixty binades and repeat keys
// freely, so the fold order is always in play.
func FuzzToCSR(f *testing.F) {
	for _, tc := range toCSRCases {
		if tc.rows == 0 || tc.rows > 255 || tc.cols > 255 {
			continue
		}
		var data []byte
		for i, e := range tc.entries() {
			data = append(data, byte(e.Row), byte(e.Col), byte(17*i))
		}
		f.Add(uint8(tc.rows), uint8(tc.cols), data)
	}
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		if rows == 0 || cols == 0 {
			return
		}
		c := NewCOO(int(rows), int(cols))
		for ; len(data) >= 3; data = data[3:] {
			w := math.Ldexp(float64(int8(data[2]))+0.5, int(data[2]%60))
			if err := c.Add(int(data[0]%rows), int(data[1]%cols), w); err != nil {
				t.Fatal(err)
			}
		}
		checkValid(t, checkToCSR(t, c, true))
	})
}
