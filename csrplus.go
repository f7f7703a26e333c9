// Package csrplus is a Go implementation of CSR+, the scalable multi-source
// CoSimRank search algorithm of Zhang & Yu (EDBT 2024), together with every
// baseline its evaluation compares against.
//
// CoSimRank (Rothe & Schütze 2014) scores two nodes as similar when their
// in-neighbours are similar; it is the fixed point of S = c·QᵀSQ + I over
// the column-normalised adjacency matrix Q. CSR+ answers multi-source
// queries [S]_{*,Q} in O(r(m + n(r + |Q|))) time and O(rn) memory by
// combining a rank-r truncated SVD with a repeated-squaring solve in the
// r x r subspace.
//
// Quick start:
//
//	g, err := csrplus.GenerateDataset("FB", 0)        // or LoadGraph(...)
//	eng, err := csrplus.NewEngine(g, csrplus.Options{})
//	cols, err := eng.Query([]int{12, 99})             // [S]_{*,{12,99}}
//	top, err := eng.TopK(12, 10)                      // 10 most similar
//
// The heavy lifting lives in internal packages (dense/sparse linear
// algebra, truncated SVD, graph generators, the algorithms themselves);
// this package is the stable public surface.
package csrplus

import (
	"errors"
	"fmt"
	"io"
	"time"

	"csrplus/internal/baseline"
	"csrplus/internal/core"
	"csrplus/internal/graph"
	"csrplus/internal/memtrack"
	"csrplus/internal/sparse"
	"csrplus/internal/svd"
	"csrplus/internal/topk"
)

// Algorithm names accepted by Options.Algorithm.
const (
	AlgoCSRPlus   = "CSR+"
	AlgoNI        = "CSR-NI"
	AlgoIT        = "CSR-IT"
	AlgoRLS       = "CSR-RLS"
	AlgoCoSimMate = "CoSimMate"
	AlgoRPCoSim   = "RP-CoSim"
	AlgoExact     = "Exact"
)

// Algorithms lists every available algorithm name.
func Algorithms() []string { return baseline.Names() }

// ErrBadEdge is returned (wrapped) when an edge references an unknown node.
var ErrBadEdge = errors.New("csrplus: edge endpoint out of range")

// Graph is an immutable directed graph over nodes 0..N-1.
type Graph struct {
	g *graph.Graph
}

// NewGraph builds a graph with n nodes from directed edges (u -> v).
// Duplicate edges collapse; self-loops are allowed.
func NewGraph(n int, edges [][2]int) (*Graph, error) {
	coo := sparse.NewCOO(n, n)
	coo.Grow(len(edges))
	for _, e := range edges {
		if err := coo.Add(e[0], e[1], 1); err != nil {
			return nil, fmt.Errorf("%w: (%d, %d) with n=%d", ErrBadEdge, e[0], e[1], n)
		}
	}
	return &Graph{g: graph.New(coo)}, nil
}

// WeightedEdge is one weighted directed edge for NewWeightedGraph.
type WeightedEdge struct {
	From, To int
	Weight   float64
}

// NewWeightedGraph builds a graph whose edges carry positive weights
// (duplicates sum). The CoSimRank transition then distributes
// weight-proportionally over in-neighbours instead of uniformly —
// e.g. co-occurrence counts in text graphs.
func NewWeightedGraph(n int, edges []WeightedEdge) (*Graph, error) {
	coo := sparse.NewCOO(n, n)
	coo.Grow(len(edges))
	for _, e := range edges {
		if err := coo.Add(e.From, e.To, e.Weight); err != nil {
			return nil, fmt.Errorf("%w: (%d, %d) with n=%d", ErrBadEdge, e.From, e.To, n)
		}
	}
	g, err := graph.NewWeighted(coo)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// LoadGraph reads a SNAP-style edge list ("src dst" lines, '#' comments)
// with node ids in [0, n).
func LoadGraph(path string, n int) (*Graph, error) {
	g, err := graph.Load(path, n)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// ReadGraph parses a SNAP-style edge list from r.
func ReadGraph(r io.Reader, n int) (*Graph, error) {
	g, err := graph.Read(r, n)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// LoadWeightedGraph reads a "src dst weight" edge list with node ids in
// [0, n) and positive weights.
func LoadWeightedGraph(path string, n int) (*Graph, error) {
	g, err := graph.LoadWeighted(path, n)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Weighted reports whether the graph carries edge weights.
func (gr *Graph) Weighted() bool { return gr.g.Weighted() }

// CoreGraph exposes the wrapped internal graph. Like Engine.CoreIndex,
// this is a module-internal hook — the ingest pipeline maintains dynamic
// state against it — not part of the stable public surface.
func (gr *Graph) CoreGraph() *graph.Graph { return gr.g }

// FromCoreGraph wraps an internal graph (e.g. one materialised from the
// ingest pipeline's live edge set) for engine construction. Module-
// internal hook, like CoreGraph.
func FromCoreGraph(g *graph.Graph) *Graph { return &Graph{g: g} }

// OutDegree returns the out-degree of node u.
func (gr *Graph) OutDegree(u int) int { return gr.g.OutDegree(u) }

// InDegrees returns the in-degree of every node.
func (gr *Graph) InDegrees() []int { return gr.g.InDegrees() }

// GenerateDataset builds the synthetic stand-in for one of the paper's
// datasets: FB, P2P, YT, WT, TW or WB. scale <= 0 selects the dataset's
// default downscale factor (see DESIGN.md §5); scale = 1 is original size.
func GenerateDataset(key string, scale int64) (*Graph, error) {
	d, scale, err := graph.Source{Dataset: key, Scale: scale}.Stand()
	if err != nil {
		return nil, err
	}
	g, err := d.GenerateScaled(scale)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// DatasetKeys lists the paper's dataset keys in its table order.
func DatasetKeys() []string {
	keys := make([]string, len(graph.Datasets))
	for i, d := range graph.Datasets {
		keys[i] = d.Key
	}
	return keys
}

// N returns the node count.
func (gr *Graph) N() int { return gr.g.N() }

// M returns the edge count.
func (gr *Graph) M() int64 { return gr.g.M() }

// HasEdge reports whether edge u -> v exists.
func (gr *Graph) HasEdge(u, v int) bool { return gr.g.HasEdge(u, v) }

// Save writes the graph as an edge list.
func (gr *Graph) Save(path string) error { return gr.g.Save(path) }

// Options configures an Engine. The zero value selects CSR+ with the
// paper's defaults (c = 0.6, r = 5, eps = 1e-5).
type Options struct {
	// Algorithm is one of the Algo* constants. Default AlgoCSRPlus.
	Algorithm string
	// Damping is the CoSimRank damping factor c in (0, 1). Default 0.6.
	Damping float64
	// Rank is the SVD rank r (CSR+/CSR-NI) and the iteration count of the
	// iterative baselines. Default 5.
	Rank int
	// Eps is the target accuracy. Default 1e-5.
	Eps float64
	// SketchDim is RP-CoSim's projection width. Default 128.
	SketchDim int
	// Seed fixes all randomised components. Zero is a valid fixed seed.
	Seed int64
}

// Match is one top-k result.
type Match struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// Stats reports an engine's cost counters.
type Stats struct {
	Algorithm      string
	N              int
	M              int64
	Rank           int // SVD rank of the index; 0 for algorithms without one
	PrecomputeTime time.Duration
	PeakBytes      int64 // analytic peak across precompute + queries so far
}

// Engine answers CoSimRank queries over one graph with one algorithm.
// Every algorithm's query phase reads only precomputed state and per-call
// scratch, so an Engine is safe for concurrent Query/TopK calls.
type Engine struct {
	n       int
	m       int64
	runner  baseline.Runner
	tracker *memtrack.Tracker
	algo    string
	precomp time.Duration
}

// NewEngine precomputes the chosen algorithm's index over g.
func NewEngine(g *Graph, opts Options) (*Engine, error) {
	if g == nil || g.g == nil {
		return nil, errors.New("csrplus: nil graph")
	}
	algo := opts.Algorithm
	if algo == "" {
		algo = AlgoCSRPlus
	}
	tracker := memtrack.New()
	runner, err := baseline.New(algo, baseline.Config{
		Damping:   opts.Damping,
		Rank:      opts.Rank,
		Eps:       opts.Eps,
		SketchDim: opts.SketchDim,
		SVD:       svd.Options{Seed: opts.Seed},
		Tracker:   tracker,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := runner.Precompute(g.g); err != nil {
		return nil, err
	}
	return &Engine{
		n:       g.N(),
		m:       g.M(),
		runner:  runner,
		tracker: tracker,
		algo:    algo,
		precomp: time.Since(start),
	}, nil
}

// Query returns the multi-source similarity block: result[j][i] is the
// CoSimRank similarity between node i and queries[j].
func (e *Engine) Query(queries []int) ([][]float64, error) {
	s, err := e.runner.Query(queries)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(queries))
	for j := range queries {
		out[j] = s.Col(j, nil)
	}
	return out, nil
}

// QueryOne returns the single-source similarity vector [S]_{*,q}.
func (e *Engine) QueryOne(q int) ([]float64, error) {
	cols, err := e.Query([]int{q})
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// TopK returns the k nodes most similar to q, excluding q itself,
// ordered by descending similarity.
func (e *Engine) TopK(q, k int) ([]Match, error) {
	col, err := e.QueryOne(q)
	if err != nil {
		return nil, err
	}
	items := topk.Select(col, k, q)
	out := make([]Match, len(items))
	for i, it := range items {
		out[i] = Match{Node: it.Node, Score: it.Score}
	}
	return out, nil
}

// TopKMulti returns, for a multi-source query set, the k nodes with the
// highest aggregate (summed) similarity to the set — the paper's §1
// Wikipedians-categorisation pattern, where the query set carries a label
// and high-aggregate nodes inherit it.
func (e *Engine) TopKMulti(queries []int, k int) ([]Match, error) {
	cols, err := e.Query(queries)
	if err != nil {
		return nil, err
	}
	agg := make([]float64, e.n)
	for _, col := range cols {
		for i, v := range col {
			agg[i] += v
		}
	}
	exclude := make(map[int]bool, len(queries))
	for _, q := range queries {
		exclude[q] = true
	}
	items := topk.SelectSet(agg, k, exclude)
	out := make([]Match, 0, len(items))
	for _, it := range items {
		out = append(out, Match{Node: it.Node, Score: it.Score})
	}
	return out, nil
}

// CoreIndex returns the engine's underlying CSR+ index, reporting false
// for algorithms without one (every non-CSR+ baseline). The index type is
// module-internal, so this is a hook for this module's cmd/ binaries —
// internal/shard slices the index into node-range shards through it — not
// part of the stable public surface.
func (e *Engine) CoreIndex() (*core.Index, bool) {
	if cp, ok := e.runner.(*baseline.CSRPlus); ok {
		return cp.Index(), true
	}
	return nil, false
}

// ErrNotCSRPlus is returned by index persistence on non-CSR+ engines.
var ErrNotCSRPlus = errors.New("csrplus: index persistence requires the CSR+ algorithm")

// Close releases resources the engine's index pins for its lifetime —
// the memory mapping of a v5 snapshot loaded zero-copy by LoadEngine or
// RecoverEngine. Call it only after every query that might touch the
// engine has finished (a server's swap-and-drain provides exactly that
// point; see reload.Candidate.Release). Safe to call more than once and
// on engines with nothing to release (precomputed, non-CSR+).
func (e *Engine) Close() error {
	if cp, ok := e.runner.(*baseline.CSRPlus); ok && cp.Index() != nil {
		return cp.Index().Close()
	}
	return nil
}

// SaveSnapshot persists a CSR+ engine's index as the next generation of
// the versioned snapshot directory dir (index-<gen>.csrx), read back
// before its name appears — the publish half of the zero-downtime reload
// cycle, whose reloads serve the newest generation. It returns the
// generation number and the snapshot path.
func (e *Engine) SaveSnapshot(dir string) (gen uint64, path string, err error) {
	return e.SaveSnapshotTier(dir, "")
}

// SaveSnapshotTier is SaveSnapshot with a quantized factor tier selected
// at save time: "" or "f64" writes the exact index, "f32" and "int8"
// write narrowed factors (2x and 8x smaller) whose measured per-column
// quantization errors ship in the file, so a loaded index reports the
// entrywise error of its answers through core.Index.TruncationBound. The
// engine's own in-memory index stays exact.
func (e *Engine) SaveSnapshotTier(dir, tier string) (gen uint64, path string, err error) {
	cp, ok := e.runner.(*baseline.CSRPlus)
	if !ok {
		return 0, "", fmt.Errorf("%w (engine runs %s)", ErrNotCSRPlus, e.algo)
	}
	kind, err := core.ParseTier(tier)
	if err != nil {
		return 0, "", err
	}
	ix, err := cp.Index().Quantize(kind)
	if err != nil {
		return 0, "", err
	}
	return core.WriteSnapshot(dir, ix)
}

// LoadEngine builds a query-ready CSR+ engine from an index file
// previously published by SaveSnapshot. The file carries the graph it was
// built over, so Stats reports its n and m and no graph is needed; g is an
// optional check, nil to skip it, that the index was built for g's node
// count.
func LoadEngine(g *Graph, path string) (*Engine, error) {
	ix, err := core.LoadIndex(path)
	if err != nil {
		return nil, err
	}
	return engineFromIndex(g, ix)
}

func engineFromIndex(g *Graph, ix *core.Index) (*Engine, error) {
	if g != nil && g.g != nil && ix.N() != g.N() {
		_ = ix.Close()
		return nil, fmt.Errorf("csrplus: index built for %d nodes, graph has %d", ix.N(), g.N())
	}
	carried, _ := ix.Graph()
	tracker := memtrack.New()
	runner := baseline.CSRPlusFromIndex(ix, baseline.Config{
		Damping: ix.Damping(),
		Rank:    ix.Rank(),
		Tracker: tracker,
	})
	return &Engine{n: ix.N(), m: carried.M, runner: runner, tracker: tracker, algo: AlgoCSRPlus}, nil
}

// RecoveredSnapshot describes the snapshot RecoverEngine actually served.
type RecoveredSnapshot struct {
	// Gen and Path identify the loaded index-<gen>.csrx file.
	Gen  uint64
	Path string
	// Recovered reports that a newer generation failed to load — crash
	// recovery fell back to an older one, and the operator should
	// investigate and re-publish.
	Recovered bool
}

// RecoverEngine is LoadEngine over a versioned snapshot directory with
// crash recovery: it serves the newest generation that loads, walking down
// past truncated or corrupt ones (a partial copy, bit rot). See
// core.RecoverSnapshot for the exact fallback order. As with LoadEngine,
// g is an optional node-count check.
func RecoverEngine(g *Graph, dir string) (*Engine, RecoveredSnapshot, error) {
	ix, snap, recovered, err := core.RecoverSnapshot(dir)
	if err != nil {
		return nil, RecoveredSnapshot{}, err
	}
	eng, err := engineFromIndex(g, ix)
	if err != nil {
		return nil, RecoveredSnapshot{}, err
	}
	return eng, RecoveredSnapshot{Gen: snap.Gen, Path: snap.Path, Recovered: recovered}, nil
}

// Stats returns the engine's cost counters so far.
func (e *Engine) Stats() Stats {
	st := Stats{
		Algorithm:      e.algo,
		N:              e.n,
		M:              e.m,
		PrecomputeTime: e.precomp,
		PeakBytes:      e.tracker.Peak(),
	}
	if cp, ok := e.runner.(*baseline.CSRPlus); ok {
		st.Rank = cp.Index().Rank()
	}
	return st
}
