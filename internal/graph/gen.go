package graph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"csrplus/internal/sparse"
)

// ErdosRenyi generates a directed G(n, m) graph: m distinct directed edges
// drawn uniformly at random without self-loops. Deterministic for a seed.
// This is the P2P (Gnutella) stand-in: peer-to-peer overlays are close to
// uniform random graphs.
func ErdosRenyi(n int, m int64, seed int64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: ErdosRenyi needs n >= 2, got %d", n)
	}
	maxEdges := int64(n) * int64(n-1)
	if m < 0 || m > maxEdges {
		return nil, fmt.Errorf("graph: ErdosRenyi m=%d out of range [0, %d]", m, maxEdges)
	}
	rng := rand.New(rand.NewSource(seed))
	adj, err := distinctEdges(n, m, math.MaxInt64, func() (u, v int) {
		u = rng.Intn(n)
		return u, rng.Intn(n)
	})
	if err != nil {
		return nil, fmt.Errorf("graph: ErdosRenyi: %w", err)
	}
	return &Graph{adj: adj}, nil
}

// distinctEdges is the draw loop ErdosRenyi and RMAT share: it returns, as a
// unit-valued adjacency, the first m distinct edges u -> v, u != v, among the
// first maxAttempts that draw produces — fewer than m when the attempts run
// out first.
//
// The graph is that set and nothing else (the rows of a CSR are sorted), so
// the loop never asks of one attempt whether it is new. It draws attempts in
// rounds of exactly the current deficit: however many of a round's attempts
// turn out to be loops or repeats, one-at-a-time drawing would have had to
// make every one of them too, and the round that closes the deficit does so
// on its last attempt — so the generator's stream is consumed to the same
// attempt, and the set is the same, as a loop that filtered each draw through
// a hash set. A round's keys are radix-sorted and merged into the sorted
// distinct set, and the CSR arrays are written off the sorted keys: no hash
// table, no triples, no per-row sort. A request close to the n(n-1) capacity
// ends in many small rounds, each at most a merge.
func distinctEdges(n int, m, maxAttempts int64, draw func() (u, v int)) (*sparse.CSR, error) {
	shift := uint(bits.Len(uint(n - 1))) // key = u<<shift | v, ordered as (u, v)
	set := make([]uint64, 0, m)
	round := make([]uint64, 0, m)
	scratch := make([]uint64, m)
	for attempts := int64(0); int64(len(set)) < m && attempts < maxAttempts; {
		d := min(m-int64(len(set)), maxAttempts-attempts)
		attempts += d
		round = round[:0]
		for ; d > 0; d-- {
			if u, v := draw(); u != v {
				round = append(round, uint64(u)<<shift|uint64(v))
			}
		}
		radixSort(round, scratch[:len(round)], 2*shift)
		set = mergeDistinct(set, round)
	}
	rowPtr := make([]int64, n+1)
	colIdx := make([]int32, len(set))
	val := make([]float64, len(set))
	for p, key := range set {
		rowPtr[key>>shift+1]++
		colIdx[p] = int32(key & (1<<shift - 1))
		val[p] = 1
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return sparse.NewCSR(n, n, rowPtr, colIdx, val)
}

// radixSort sorts keys, all below 1<<keyBits, ascending: least-significant-
// digit counting passes between keys and scratch (same length), with the
// digit width chosen so the fewest passes of at most 12 bits cover keyBits.
func radixSort(keys, scratch []uint64, keyBits uint) {
	passes := (keyBits + 11) / 12
	if passes == 0 || len(keys) < 2 {
		return
	}
	width := (keyBits + passes - 1) / passes
	mask := uint64(1)<<width - 1
	src, dst := keys, scratch
	for shift := uint(0); shift < passes*width; shift += width {
		var next [1 << 12]int
		for _, k := range src {
			next[k>>shift&mask]++
		}
		at := 0
		for d, c := range next[:mask+1] {
			next[d], at = at, at+c
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[next[d]] = k
			next[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(keys, scratch)
	}
}

// mergeDistinct merges the sorted keys into the sorted duplicate-free set,
// in set's storage (which must have room), and drops what set already holds
// and keys' own repeats. keys is overwritten. The keys that are new are
// found by galloping down set — a small round costs its own length times a
// logarithm, not set's — and merged in from the back, which moves only the
// part of set above the smallest of them.
func mergeDistinct(set, keys []uint64) []uint64 {
	fresh, at := keys[:0], 0 // at: the first of set not below the current key
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		lo, hi := at, at
		for step := 1; hi < len(set) && set[hi] < k; step *= 2 {
			lo, hi = hi+1, hi+step
		}
		j, found := slices.BinarySearch(set[lo:min(hi+1, len(set))], k)
		if at = lo + j; !found {
			fresh = append(fresh, k)
		}
	}
	i, w := len(set)-1, len(set)+len(fresh)-1
	set = set[:w+1]
	for j := len(fresh) - 1; j >= 0; w-- {
		if i >= 0 && set[i] > fresh[j] {
			set[w] = set[i]
			i--
		} else {
			set[w] = fresh[j]
			j--
		}
	}
	return set
}

// BarabasiAlbert generates an undirected preferential-attachment graph
// with n nodes, each new node attaching k edges, stored as a symmetric
// directed graph (both directions per undirected edge). This is the FB
// (ego-Facebook) stand-in: social friendship graphs are heavy-tailed and
// symmetric.
func BarabasiAlbert(n, k int, seed int64) (*Graph, error) {
	if n < 2 || k < 1 || k >= n {
		return nil, fmt.Errorf("graph: BarabasiAlbert invalid n=%d k=%d", n, k)
	}
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n)
	coo.Grow(2 * n * k)
	// Repeated-nodes list: each endpoint append biases later draws toward
	// high-degree nodes (the standard BA sampling trick).
	targets := make([]int, 0, 2*n*k)
	// Seed clique over the first k+1 nodes.
	for u := 0; u <= k; u++ {
		for v := 0; v <= k; v++ {
			if u == v {
				continue
			}
			if err := coo.Add(u, v, 1); err != nil {
				return nil, fmt.Errorf("graph: BarabasiAlbert: %w", err)
			}
		}
		for t := 0; t < k; t++ {
			targets = append(targets, u)
		}
	}
	for u := k + 1; u < n; u++ {
		// Attachment targets kept in draw order so the generator is
		// deterministic (map iteration order would not be).
		attached := make([]int, 0, k)
		isAttached := map[int]bool{}
		for len(attached) < k {
			v := targets[rng.Intn(len(targets))]
			if v == u || isAttached[v] {
				continue
			}
			isAttached[v] = true
			attached = append(attached, v)
		}
		for _, v := range attached {
			if err := coo.Add(u, v, 1); err != nil {
				return nil, fmt.Errorf("graph: BarabasiAlbert: %w", err)
			}
			if err := coo.Add(v, u, 1); err != nil {
				return nil, fmt.Errorf("graph: BarabasiAlbert: %w", err)
			}
			targets = append(targets, u, v)
		}
	}
	return New(coo), nil
}

// WattsStrogatz generates a small-world ring lattice with n nodes, k
// neighbours per side, and rewiring probability beta, symmetrised into a
// directed graph. Offered for workloads that need high clustering.
func WattsStrogatz(n, k int, beta float64, seed int64) (*Graph, error) {
	if n < 4 || k < 1 || 2*k >= n || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("graph: WattsStrogatz invalid n=%d k=%d beta=%v", n, k, beta)
	}
	rng := rand.New(rand.NewSource(seed))
	type edge struct{ u, v int }
	norm := func(u, v int) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	// Lattice edges in a slice (deterministic order); the set mirrors it
	// for O(1) duplicate checks during rewiring.
	lattice := make([]edge, 0, n*k)
	present := make(map[edge]bool, n*k)
	for u := 0; u < n; u++ {
		for d := 1; d <= k; d++ {
			e := norm(u, (u+d)%n)
			if !present[e] {
				present[e] = true
				lattice = append(lattice, e)
			}
		}
	}
	// Rewire each lattice edge with probability beta.
	final := make([]edge, 0, len(lattice))
	for _, e := range lattice {
		if rng.Float64() >= beta {
			final = append(final, e)
			continue
		}
		delete(present, e)
		for {
			w := rng.Intn(n)
			ne := norm(e.u, w)
			if w == e.u || present[ne] {
				continue
			}
			present[ne] = true
			final = append(final, ne)
			break
		}
	}
	coo := sparse.NewCOO(n, n)
	coo.Grow(2 * len(final))
	for _, e := range final {
		if err := coo.Add(e.u, e.v, 1); err != nil {
			return nil, fmt.Errorf("graph: WattsStrogatz: %w", err)
		}
		if err := coo.Add(e.v, e.u, 1); err != nil {
			return nil, fmt.Errorf("graph: WattsStrogatz: %w", err)
		}
	}
	return New(coo), nil
}

// RMATParams are the quadrant probabilities of the recursive matrix
// generator (Chakrabarti, Zhan & Faloutsos 2004). They must be positive
// and sum to ~1.
type RMATParams struct {
	A, B, C, D float64
}

// DefaultRMAT matches the common (0.57, 0.19, 0.19, 0.05) skew used for
// power-law social/web graphs.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// RMAT generates a directed power-law graph with 2^scale nodes and ~m
// distinct edges by recursive quadrant descent. Duplicate edges are
// collapsed (so the final count can land slightly under m; the generator
// compensates with bounded oversampling). Self-loops are dropped. This is
// the stand-in for YT, WT, TW and WB: heavy-tailed degree skew with tunable
// density.
func RMAT(scale int, m int64, p RMATParams, seed int64) (*Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: RMAT scale %d out of range [1, 30]", scale)
	}
	sum := p.A + p.B + p.C + p.D
	if p.A <= 0 || p.B <= 0 || p.C <= 0 || p.D <= 0 || sum < 0.99 || sum > 1.01 {
		return nil, fmt.Errorf("graph: RMAT params %+v invalid (need positive, sum ~1)", p)
	}
	n := 1 << scale
	if m < 0 || m > int64(n)*int64(n-1) {
		return nil, fmt.Errorf("graph: RMAT m=%d out of range for n=%d", m, n)
	}
	// The draws are rand.New(src).Float64()'s value stream, bit for bit —
	// float64(Int63())/2^63, resampled on the one value that rounds up to 1 —
	// taken straight off the source: every committed number stands on the
	// graphs this loop has always produced (TestDatasetDigests).
	src := rand.NewSource(seed)
	ab := p.A + p.B
	abc := ab + p.C
	// Bounded oversampling: R-MAT's quadrant skew makes duplicates common;
	// cap attempts at 20 m so adversarial parameters cannot loop forever.
	adj, err := distinctEdges(n, m, 20*m, func() (u, v int) {
		for bit := 0; bit < scale; bit++ {
			f := float64(src.Int63()) / (1 << 63)
			for f == 1 {
				f = float64(src.Int63()) / (1 << 63)
			}
			// The quadrant as a count of thresholds passed — 0 top-left,
			// 1 top-right (a v bit), 2 bottom-left (a u bit), 3 both: the
			// comparisons of a four-way switch on r, without its jumps
			// into four bodies.
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
		return u, v
	})
	if err != nil {
		return nil, fmt.Errorf("graph: RMAT: %w", err)
	}
	return &Graph{adj: adj}, nil
}
