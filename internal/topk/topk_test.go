package topk

import (
	"container/heap"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSelectBasic(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.7, 0.3}
	got := Select(scores, 3, -1)
	want := []Item{{1, 0.9}, {3, 0.7}, {2, 0.5}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSelectExclude(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5}
	got := Select(scores, 2, 1)
	if len(got) != 2 || got[0].Node != 2 || got[1].Node != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestSelectKLargerThanN(t *testing.T) {
	got := Select([]float64{0.2, 0.1}, 10, -1)
	if len(got) != 2 {
		t.Fatalf("got %d items", len(got))
	}
}

func TestSelectNonPositiveK(t *testing.T) {
	if Select([]float64{1}, 0, -1) != nil || Select([]float64{1}, -2, -1) != nil {
		t.Fatal("k <= 0 should return nil")
	}
}

func TestSelectTiesPreferSmallerNode(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	got := Select(scores, 2, -1)
	if got[0].Node != 0 || got[1].Node != 1 {
		t.Fatalf("ties broken wrong: %v", got)
	}
}

func TestSelectEmpty(t *testing.T) {
	if got := Select(nil, 3, -1); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

// TestSelectNaNSafe is the regression test for the NaN heap corruption:
// NaN compares false with everything, so a NaN admitted into the min-heap
// breaks the heap invariant and can both occupy a result slot and shadow
// real candidates. NaNs must be skipped entirely; ±Inf orders normally.
func TestSelectNaNSafe(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	scores := []float64{0.3, nan, 0.9, nan, inf, 0.1, math.Inf(-1), nan, 0.5}
	got := Select(scores, 4, -1)
	want := []Item{{4, inf}, {2, 0.9}, {8, 0.5}, {0, 0.3}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, it := range got {
		if math.IsNaN(it.Score) {
			t.Fatalf("NaN leaked into results: %v", got)
		}
	}
	// All-NaN input yields no candidates at all.
	if got := Select([]float64{nan, nan, nan}, 2, -1); len(got) != 0 {
		t.Fatalf("all-NaN input returned %v", got)
	}
	// NaNs ahead of the k-th candidate must not shrink the result: k
	// finite scores survive k+NaNs input.
	mixed := []float64{nan, 0.2, nan, 0.4, nan, 0.6}
	if got := Select(mixed, 3, -1); len(got) != 3 || got[0].Node != 5 || got[2].Node != 1 {
		t.Fatalf("NaN-heavy input returned %v", got)
	}
}

// Property: Select(k) returns exactly the top k of a full sort.
func TestSelectAgainstSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		got := Select(scores, k, -1)
		ref := make([]Item, n)
		for i, s := range scores {
			ref[i] = Item{i, s}
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].Score != ref[j].Score {
				return ref[i].Score > ref[j].Score
			}
			return ref[i].Node < ref[j].Node
		})
		if k > n {
			k = n
		}
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectDuplicateScoresDeterministic is the regression test for the
// tie-break contract the scatter–gather merge depends on: under heavy
// score duplication the selection must order ties by ascending node id,
// and selecting per contiguous range then merging must reproduce the
// whole-array selection exactly — at every split point. A tie-break that
// depended on heap eviction order or sort stability would fail the
// split-invariance half of this test.
func TestSelectDuplicateScoresDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, k := 200, 12
	scores := make([]float64, n)
	levels := []float64{0.1, 0.5, 0.5, 0.9} // few distinct values => many ties
	for i := range scores {
		scores[i] = levels[rng.Intn(len(levels))]
	}
	want := Select(scores, k, -1)
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Node >= b.Node) {
			t.Fatalf("tie ordering violated at %d: %v then %v", i, a, b)
		}
	}
	// Split the array into every 2-way contiguous partition and re-derive
	// the answer via per-range selection + merge.
	for cut := 0; cut <= n; cut += 17 {
		left := SelectRange(scores[:cut], k, 0, nil)
		right := SelectRange(scores[cut:], k, cut, nil)
		got := Merge(k, left, right)
		if len(got) != len(want) {
			t.Fatalf("cut %d: got %d items, want %d", cut, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut %d: item %d = %v, want %v", cut, i, got[i], want[i])
			}
		}
	}
}

func TestSelectSetExcludesAll(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	got := SelectSet(scores, 3, map[int]bool{0: true, 2: true})
	want := []Item{{1, 0.8}, {3, 0.6}, {4, 0.5}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// nil set excludes nothing; Select's single-node form is the wrapper.
	if got := SelectSet(scores, 2, nil); got[0].Node != 0 || got[1].Node != 1 {
		t.Fatalf("nil exclusion set: %v", got)
	}
	a, b := Select(scores, 2, 1), SelectSet(scores, 2, map[int]bool{1: true})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Select and SelectSet disagree: %v vs %v", a, b)
		}
	}
}

func TestSelectRangeOffsetsNodeIDs(t *testing.T) {
	scores := []float64{0.3, 0.9, 0.1}
	got := SelectRange(scores, 2, 100, map[int]bool{101: true})
	want := []Item{{100, 0.3}, {102, 0.1}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Property: selecting per contiguous chunk and merging equals selecting
// over the whole array, for random chunkings and exclusion sets.
func TestMergeAgainstSelectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		k := 1 + rng.Intn(25)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(8)) / 8 // duplicate-heavy
		}
		exclude := map[int]bool{}
		for e := 0; e < rng.Intn(4); e++ {
			exclude[rng.Intn(n)] = true
		}
		want := SelectSet(scores, k, exclude)
		// Random contiguous partition into 1..6 chunks.
		chunks := 1 + rng.Intn(6)
		bounds := []int{0}
		for c := 1; c < chunks; c++ {
			bounds = append(bounds, rng.Intn(n+1))
		}
		bounds = append(bounds, n)
		sort.Ints(bounds)
		lists := make([][]Item, 0, chunks)
		for c := 0; c+1 < len(bounds); c++ {
			lo, hi := bounds[c], bounds[c+1]
			lists = append(lists, SelectRange(scores[lo:hi], k, lo, exclude))
		}
		got := Merge(k, lists...)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEdgeCases(t *testing.T) {
	if Merge(0, []Item{{1, 0.5}}) != nil {
		t.Fatal("k <= 0 should return nil")
	}
	if got := Merge(3); len(got) != 0 {
		t.Fatalf("no lists: %v", got)
	}
	// Fewer total items than k returns them all, ordered.
	got := Merge(10, []Item{{5, 0.2}}, nil, []Item{{1, 0.9}})
	if len(got) != 2 || got[0] != (Item{1, 0.9}) || got[1] != (Item{5, 0.2}) {
		t.Fatalf("got %v", got)
	}
	// List order must not matter, including under ties.
	a := []Item{{2, 0.5}, {7, 0.3}}
	b := []Item{{4, 0.5}, {1, 0.3}}
	x, y := Merge(3, a, b), Merge(3, b, a)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("merge depends on list order: %v vs %v", x, y)
		}
	}
	if x[0] != (Item{2, 0.5}) || x[1] != (Item{4, 0.5}) || x[2] != (Item{1, 0.3}) {
		t.Fatalf("tie ordering wrong: %v", x)
	}
}

// itemHeap and selectRangeOneShot are the pre-Selector implementation of
// SelectRange — container/heap over the whole materialised slice — kept
// frozen here as the reference the streaming selector is held to.
type itemHeap []Item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Node > h[j].Node
}
func (h itemHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x interface{}) { *h = append(*h, x.(Item)) }
func (h *itemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func selectRangeOneShot(scores []float64, k, base int, exclude map[int]bool) []Item {
	if k <= 0 {
		return nil
	}
	h := make(itemHeap, 0, k)
	for i, score := range scores {
		node := base + i
		if exclude[node] || math.IsNaN(score) {
			continue
		}
		if len(h) < k {
			heap.Push(&h, Item{node, score})
			continue
		}
		if h[0].Score < score || (h[0].Score == score && h[0].Node > node) {
			h[0] = Item{node, score}
			heap.Fix(&h, 0)
		}
	}
	out := []Item(h)
	sort.Slice(out, func(i, j int) bool { return itemLess(out[i], out[j]) })
	return out
}

func TestHeapInterfaceDirect(t *testing.T) {
	// Exercise the container/heap contract (Push/Pop) directly.
	h := &itemHeap{}
	heap.Init(h)
	for _, it := range []Item{{0, 0.5}, {1, 0.1}, {2, 0.9}} {
		heap.Push(h, it)
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	got := heap.Pop(h).(Item)
	if got.Node != 1 { // min-heap pops the smallest score
		t.Fatalf("popped %+v, want node 1", got)
	}
}

// sameItems compares two selections bit for bit: -0.0 and +0.0 tie under
// the ordering but are different answers on the wire.
func sameItems(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// checkBandSplits is the selector's defining property, shared by the
// seeded test and the fuzz target: however a score vector is cut into
// bands, pushing the bands equals a full sort of the candidates and equals
// the frozen one-shot implementation. cuts are band boundaries in
// [0, len(scores)], any order, duplicates allowed (empty bands).
func checkBandSplits(t *testing.T, scores []float64, k, base int, exclude map[int]bool, cuts []int) {
	t.Helper()
	var oracle []Item
	for i, s := range scores {
		if !math.IsNaN(s) && !exclude[base+i] {
			oracle = append(oracle, Item{base + i, s})
		}
	}
	sort.Slice(oracle, func(i, j int) bool { return itemLess(oracle[i], oracle[j]) })
	if k < len(oracle) {
		oracle = oracle[:max(k, 0)]
	}

	bounds := append([]int{0, len(scores)}, cuts...)
	sort.Ints(bounds)
	sel := NewSelector(k, exclude)
	for b := 0; b+1 < len(bounds); b++ {
		sel.Push(base+bounds[b], scores[bounds[b]:bounds[b+1]])
	}
	got := sel.Items()
	if !sameItems(got, oracle) {
		t.Fatalf("k=%d base=%d cuts=%v: banded selection %v, sorted oracle %v", k, base, cuts, got, oracle)
	}
	// The same bands offered with their node ids spelled out, every other
	// one: an id slice and a base are two names for one band.
	ids := make([]int32, len(scores))
	for i := range ids {
		ids[i] = int32(base + i)
	}
	sel = NewSelector(k, exclude)
	for b := 0; b+1 < len(bounds); b++ {
		if lo, hi := bounds[b], bounds[b+1]; b%2 == 0 {
			sel.PushIDs(ids[lo:hi], scores[lo:hi])
		} else {
			sel.Push(base+lo, scores[lo:hi])
		}
	}
	if byID := sel.Items(); !sameItems(byID, got) {
		t.Fatalf("k=%d base=%d cuts=%v: selection by id slices %v, by base %v", k, base, cuts, byID, got)
	}
	if old := selectRangeOneShot(scores, k, base, exclude); !sameItems(got, old) {
		t.Fatalf("k=%d base=%d cuts=%v: banded selection %v, one-shot heap %v", k, base, cuts, got, old)
	}
	if one := SelectRange(scores, k, base, exclude); !sameItems(got, one) {
		t.Fatalf("k=%d base=%d cuts=%v: banded selection %v, SelectRange %v", k, base, cuts, got, one)
	}
}

// awkwardScores draws from a palette built to collide: few distinct
// values (ties everywhere), both zeros, both infinities and NaN.
func awkwardScores(rng *rand.Rand, n int) []float64 {
	palette := []float64{0, math.Copysign(0, -1), 0.25, 0.25, 0.5, -0.5, 1, math.Inf(1), math.Inf(-1), math.NaN()}
	scores := make([]float64, n)
	for i := range scores {
		if rng.Intn(3) == 0 {
			scores[i] = rng.NormFloat64()
		} else {
			scores[i] = palette[rng.Intn(len(palette))]
		}
	}
	return scores
}

func Test_SelectorBandSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(300)
		scores := awkwardScores(rng, n)
		var exclude map[int]bool
		base := rng.Intn(3) * 1000
		if rng.Intn(4) > 0 {
			exclude = map[int]bool{}
			for e := rng.Intn(6); e > 0 && n > 0; e-- {
				exclude[base+rng.Intn(n)] = true
			}
		}
		cuts := make([]int, rng.Intn(8))
		for i := range cuts {
			cuts[i] = rng.Intn(n + 1)
		}
		for _, k := range []int{1, 1 + rng.Intn(20), n, n + 5} {
			checkBandSplits(t, scores, k, base, exclude, cuts)
		}
	}
	// k <= 0 keeps nothing, whatever is pushed.
	sel := NewSelector(0, nil)
	sel.Push(0, []float64{1, 2})
	sel.PushIDs([]int32{7, 9}, []float64{1, 2})
	if got := sel.Items(); len(got) != 0 {
		t.Fatalf("k=0 selector kept %v", got)
	}
	// Ids with gaps: ties still break towards the smaller id, exclusions
	// are looked up by id, and a full selector still turns later ties away.
	sel = NewSelector(3, map[int]bool{40: true})
	sel.PushIDs([]int32{5, 40, 41}, []float64{0.5, 9, 0.5})
	sel.PushIDs([]int32{90, 97, 99}, []float64{0.5, 0.75, math.NaN()})
	if got, want := sel.Items(), []Item{{97, 0.75}, {5, 0.5}, {41, 0.5}}; !sameItems(got, want) {
		t.Fatalf("selection over id slices = %v, want %v", got, want)
	}
}

// FuzzSelectorBandSplits lets the fuzzer choose the score bytes, k, the
// exclusions and the band boundaries.
func FuzzSelectorBandSplits(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(2), uint8(1), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, k, excl, cut uint8) {
		scores := make([]float64, len(raw)/8)
		for i := range scores {
			scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		n := len(scores)
		exclude := map[int]bool{}
		if n > 0 && excl > 0 {
			exclude[int(excl)%n] = true
			exclude[int(excl)*7%n] = true
		}
		cuts := []int{int(cut) % (n + 1), int(cut) * 3 % (n + 1), int(cut) % (n + 1)}
		checkBandSplits(t, scores, int(k), 0, exclude, cuts)
	})
}
