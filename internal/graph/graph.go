// Package graph provides the graph substrate of the CSR+ reproduction:
// a directed-graph type backed by the sparse package's COO/CSR storage
// (mirroring the paper's §4.1 "Graph Storage"), SNAP-style edge-list I/O,
// degree statistics, synthetic generators, and descriptors for the paper's
// six evaluation datasets at configurable scale.
package graph

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"csrplus/internal/sparse"
)

// ErrEmpty is returned (wrapped) for operations that need at least one node.
var ErrEmpty = errors.New("graph: empty graph")

// ErrBadWeight is returned (wrapped) by NewWeighted and the weighted
// readers for edge weights with no random-surfer reading: non-positive,
// NaN, or infinite — including duplicates whose sum lands there.
var ErrBadWeight = errors.New("graph: bad edge weight")

// Graph is a directed graph over nodes 0..N-1 whose adjacency is held in
// CSR with entry (u, v) = 1 for each edge u -> v. Parallel edges collapse
// on construction.
type Graph struct {
	adj      *sparse.CSR
	weighted bool
}

// New builds a Graph from a COO adjacency (entries (u, v, *) meaning
// u -> v; values are ignored, multiplicity collapses to one edge).
func New(coo *sparse.COO) *Graph {
	m := coo.ToCSR()
	// Collapse any summed duplicate weights back to unit edges.
	for i := range m.Val {
		m.Val[i] = 1
	}
	return &Graph{adj: m}
}

// NewWeighted builds a Graph whose edges carry positive weights (values
// of duplicate entries sum). CoSimRank generalises naturally: the
// transition matrix column becomes the weight-proportional distribution
// over in-neighbours instead of the uniform one — e.g. co-occurrence
// counts in the synonym-expansion use case. Non-positive accumulated
// weights are rejected: they would break the random-surfer reading.
func NewWeighted(coo *sparse.COO) (*Graph, error) {
	m := coo.ToCSR()
	if err := checkWeights("NewWeighted", m); err != nil {
		return nil, err
	}
	return &Graph{adj: m, weighted: true}, nil
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weighted }

// FromCSR wraps an existing 0/1 CSR adjacency as a Graph. The matrix is
// not copied.
func FromCSR(m *sparse.CSR) (*Graph, error) {
	rows, cols := m.Dims()
	if rows != cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", rows, cols)
	}
	return &Graph{adj: m}, nil
}

// FromWeightedCSR wraps an existing weighted CSR adjacency as a Graph,
// refusing the weights NewWeighted refuses. The matrix is not copied.
func FromWeightedCSR(m *sparse.CSR) (*Graph, error) {
	g, err := FromCSR(m)
	if err != nil {
		return nil, err
	}
	if err := checkWeights("FromWeightedCSR", m); err != nil {
		return nil, err
	}
	g.weighted = true
	return g, nil
}

// checkWeights rejects the weights with no random-surfer reading.
func checkWeights(caller string, m *sparse.CSR) error {
	for i, v := range m.Val {
		// !(v > 0) also catches NaN, which v <= 0 would wave through.
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("graph: %s: entry %d has weight %v: %w", caller, i, v, ErrBadWeight)
		}
	}
	return nil
}

// N returns the node count.
func (g *Graph) N() int {
	n, _ := g.adj.Dims()
	return n
}

// M returns the edge count.
func (g *Graph) M() int64 { return g.adj.NNZ() }

// Adj returns the CSR adjacency (rows = sources). Callers must not mutate.
func (g *Graph) Adj() *sparse.CSR { return g.adj }

// HasEdge reports whether edge u -> v exists.
func (g *Graph) HasEdge(u, v int) bool { return g.adj.At(u, v) != 0 }

// OutDegree returns the out-degree of node u.
func (g *Graph) OutDegree(u int) int { return g.adj.RowNNZ(u) }

// InDegrees returns the in-degree of every node.
func (g *Graph) InDegrees() []int {
	n := g.N()
	deg := make([]int, n)
	for _, j := range g.adj.ColIdx {
		deg[j]++
	}
	return deg
}

// Transition returns the column-normalised adjacency matrix Q of Eq. (1):
// column a is the distribution over a's in-neighbours — uniform
// (1/indeg(a)) for unweighted graphs, weight-proportional for weighted
// ones. Columns of in-degree-0 nodes are zero. It returns ErrEmpty
// (wrapped) for a 0-node graph.
func (g *Graph) Transition() (*sparse.CSR, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("graph: Transition: %w", ErrEmpty)
	}
	q := g.adj.Clone()
	q.ScaleColumns(g.colScale())
	return q, nil
}

// SupportTransition is Transition restricted to its support, as
// sparse.CSR.Support returns it: Q's non-empty rows (the nodes with an
// out-link) by its non-empty columns (the nodes with an in-link), and their
// node ids — nil on a side with nothing to leave out. It is built from the
// adjacency without Transition's copy of all of it, and holds
// Transition().Support()'s values bit for bit: each is the same product of
// an edge weight and its column's 1/indeg. It returns ErrEmpty (wrapped)
// for a 0-node graph.
func (g *Graph) SupportTransition() (q *sparse.CSR, rows, cols []int32, err error) {
	if g.N() == 0 {
		return nil, nil, nil, fmt.Errorf("graph: SupportTransition: %w", ErrEmpty)
	}
	q, rows, cols = g.adj.ScaledSupport(g.colScale())
	return q, rows, cols, nil
}

// colScale returns Q's column factors: 1 over each column sum of the
// adjacency, 0 for a column that sums to none.
func (g *Graph) colScale() []float64 {
	scale := g.adj.ColSums()
	for j, s := range scale {
		if s > 0 {
			scale[j] = 1 / s
		} else {
			scale[j] = 0
		}
	}
	return scale
}

// Load reads a SNAP-style edge list from path. n must be an upper bound on
// node ids (exactly the node count for the datasets this repo generates).
func Load(path string, n int) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	defer f.Close()
	return Read(f, n)
}

// Read parses a SNAP-style edge list from r.
func Read(r io.Reader, n int) (*Graph, error) {
	coo, err := sparse.ReadEdgeList(r, n)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return New(coo), nil
}

// ReadWeighted parses a "src dst weight" edge list from r into a
// weighted graph.
func ReadWeighted(r io.Reader, n int) (*Graph, error) {
	coo, err := sparse.ReadWeightedEdgeList(r, n)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return NewWeighted(coo)
}

// LoadWeighted reads a weighted edge list from path.
func LoadWeighted(path string, n int) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	defer f.Close()
	return ReadWeighted(f, n)
}

// Save writes the graph as an edge list to path.
func (g *Graph) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: save %s: %w", path, err)
	}
	defer f.Close()
	if err := sparse.WriteEdgeList(f, g.adj); err != nil {
		return fmt.Errorf("graph: save %s: %w", path, err)
	}
	return nil
}

// Stats summarises a graph for reporting.
type Stats struct {
	N          int
	M          int64
	AvgDegree  float64
	MaxInDeg   int
	MaxOutDeg  int
	ZeroInDeg  int // nodes with no in-edges (zero transition columns)
	ZeroOutDeg int
}

// ComputeStats walks the adjacency once and returns summary statistics.
func (g *Graph) ComputeStats() Stats {
	n := g.N()
	s := Stats{N: n, M: g.M()}
	if n > 0 {
		s.AvgDegree = float64(s.M) / float64(n)
	}
	in := g.InDegrees()
	for u := 0; u < n; u++ {
		od := g.OutDegree(u)
		if od > s.MaxOutDeg {
			s.MaxOutDeg = od
		}
		if od == 0 {
			s.ZeroOutDeg++
		}
		if in[u] > s.MaxInDeg {
			s.MaxInDeg = in[u]
		}
		if in[u] == 0 {
			s.ZeroInDeg++
		}
	}
	return s
}
