package graph

import (
	"fmt"
	"math/rand"

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
	coo := sparse.NewCOO(n, n)
	coo.Grow(int(m))
	seen := newEdgeSet(m)
	for int64(coo.NNZ()) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || !seen.add(int64(u)*int64(n)+int64(v)) {
			continue
		}
		if err := coo.Add(u, v, 1); err != nil {
			return nil, fmt.Errorf("graph: ErdosRenyi: %w", err)
		}
	}
	return New(coo), nil
}

// edgeSet is the generators' duplicate filter: an insert-only open-addressed
// set of edge keys u*n + v, linear probing over a power-of-two table sized up
// front for the edges the caller will keep, so it never rehashes and a
// probe touches one cache line where the built-in map walks a bucket.
type edgeSet struct {
	slots []int64 // key + 1; 0 is an empty slot
	shift uint
}

// newEdgeSet returns a set with room for capacity keys at a load of at most
// one half.
func newEdgeSet(capacity int64) *edgeSet {
	bits := uint(4)
	for uint64(1)<<bits < 2*uint64(capacity) {
		bits++
	}
	return &edgeSet{slots: make([]int64, uint64(1)<<bits), shift: 64 - bits}
}

// add inserts key >= 0 and reports whether it was absent.
func (s *edgeSet) add(key int64) bool {
	mask := len(s.slots) - 1
	// Fibonacci hashing: the product's high bits mix every bit of the key.
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
	if m < 0 || m > int64(n)*int64(n-1)/2 {
		return nil, fmt.Errorf("graph: RMAT m=%d out of range for n=%d", m, n)
	}
	// The draws are rand.New(src).Float64()'s value stream, bit for bit —
	// float64(Int63())/2^63, resampled on the one value that rounds up to 1 —
	// taken straight off the source: every committed number stands on the
	// graphs this loop has always produced (TestDatasetDigests).
	src := rand.NewSource(seed)
	coo := sparse.NewCOO(n, n)
	coo.Grow(int(m))
	seen := newEdgeSet(m)
	// Bounded oversampling: R-MAT's quadrant skew makes duplicates common;
	// cap attempts so adversarial parameters cannot loop forever.
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
		if u == v || !seen.add(int64(u)*int64(n)+int64(v)) {
			continue
		}
		if err := coo.Add(u, v, 1); err != nil {
			return nil, fmt.Errorf("graph: RMAT: %w", err)
		}
	}
	return New(coo), nil
}
