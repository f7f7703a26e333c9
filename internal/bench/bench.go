// Package bench is the experiment harness of the reproduction: it
// regenerates every table and figure of the paper's §4 evaluation —
// workload generation, parameter sweeps, the budget guards that stand in
// for the paper's memory crashes, and reporters that print the same
// rows/series the paper plots. cmd/csrbench is its CLI; the root-level
// bench_test.go exposes each experiment as a testing.B benchmark.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"csrplus/internal/baseline"
	"csrplus/internal/graph"
	"csrplus/internal/memtrack"
	"csrplus/internal/svd"
)

// Paper defaults (§4.1 Parameters).
const (
	DefaultQuerySize = 100
	DefaultDamping   = 0.6
	DefaultRank      = 5
)

// Env carries the harness configuration shared by every experiment.
type Env struct {
	// Out receives the rendered tables; nil discards output.
	Out io.Writer
	// MemBudget is the analytic-bytes guard: cells whose EstimateBytes
	// exceeds it are skipped with a "MEM" marker (the paper's crashes).
	// Default 10 GiB.
	MemBudget int64
	// FlopBudget is the time guard: cells whose EstimateFlops exceeds it
	// are skipped with a "TIME" marker. Default 4e10 (~1 minute at this
	// substrate's single-core throughput).
	FlopBudget int64
	// ExtraScale multiplies every dataset's default downscale factor —
	// the tests and testing.B benchmarks run with a large ExtraScale so
	// each cell stays sub-second. Default 1 (DESIGN.md §5 scales).
	ExtraScale int64
	// QuerySeed fixes the sampled query workloads.
	QuerySeed int64
	// Progress, when non-nil, receives one line per executed cell — the
	// heartbeat of multi-minute full-scale runs.
	Progress io.Writer

	cache map[string]*graph.Graph
}

// NewEnv returns an Env with the defaults above.
func NewEnv(out io.Writer) *Env {
	return &Env{
		Out:        out,
		MemBudget:  10 << 30,
		FlopBudget: 4e10,
		ExtraScale: 1,
		cache:      make(map[string]*graph.Graph),
	}
}

// Quick reconfigures the Env for sub-second cells (unit tests and
// testing.B benchmarks): heavily downscaled graphs and a small memory
// budget so the paper's "who crashes where" shape still shows.
func (e *Env) Quick() *Env {
	e.ExtraScale = 64
	e.MemBudget = 32 << 20
	e.FlopBudget = 2e9
	return e
}

// Dataset returns (generating and caching on first use) the named
// dataset's stand-in graph at the Env's scale.
func (e *Env) Dataset(key string) (*graph.Graph, error) {
	if e.cache == nil {
		e.cache = make(map[string]*graph.Graph)
	}
	if g, ok := e.cache[key]; ok {
		return g, nil
	}
	d, scale, err := graph.Source{Dataset: key}.Stand()
	if err != nil {
		return nil, err
	}
	if e.ExtraScale > 1 {
		scale *= e.ExtraScale
	}
	// Keep every stand-in at least a few hundred nodes so query sampling
	// and rank sweeps stay meaningful under aggressive ExtraScale.
	for scale > 1 && d.PaperN/scale < 400 {
		scale /= 2
	}
	g, err := d.GenerateScaled(scale)
	if err != nil {
		return nil, fmt.Errorf("bench: dataset %s at scale %d: %w", key, scale, err)
	}
	e.cache[key] = g
	return g, nil
}

// SampleQueries draws q distinct node ids, deterministic in the Env seed.
func (e *Env) SampleQueries(g *graph.Graph, q int) []int {
	n := g.N()
	if q > n {
		q = n
	}
	rng := rand.New(rand.NewSource(e.QuerySeed + int64(n)*31 + int64(q)))
	perm := rng.Perm(n)[:q]
	sort.Ints(perm)
	return perm
}

// Measurement is one experiment cell: one algorithm on one workload.
type Measurement struct {
	Algo    string
	Dataset string
	N       int
	M       int64
	Q       int
	Rank    int

	PrecompTime time.Duration
	QueryTime   time.Duration
	// PrecompBytes/QueryBytes are the net analytic bytes attributed to
	// each phase; PeakBytes is the overall high-water mark.
	PrecompBytes int64
	QueryBytes   int64
	PeakBytes    int64

	// Skipped marks guarded cells; Reason is "MEM" or "TIME" and
	// EstBytes/EstFlops record what the guard saw.
	Skipped  bool
	Reason   string
	EstBytes int64
	EstFlops int64
}

// TotalTime returns precompute + query time (the paper's Figure 2 metric).
func (m Measurement) TotalTime() time.Duration { return m.PrecompTime + m.QueryTime }

// RunCell executes one (algorithm, graph, queries) cell under the Env's
// guards. cfg.Tracker is overwritten with a fresh tracker.
func (e *Env) RunCell(algoName string, cfg baseline.Config, dataset string, g *graph.Graph, queries []int) (Measurement, error) {
	m := Measurement{
		Algo:    algoName,
		Dataset: dataset,
		N:       g.N(),
		M:       g.M(),
		Q:       len(queries),
		Rank:    cfg.WithDefaults().Rank,
	}
	tracker := memtrack.New()
	cfg.Tracker = tracker
	runner, err := baseline.New(algoName, cfg)
	if err != nil {
		return m, err
	}
	m.EstBytes = runner.EstimateBytes(g.N(), g.M(), len(queries))
	m.EstFlops = runner.EstimateFlops(g.N(), g.M(), len(queries))
	if e.MemBudget > 0 && m.EstBytes > e.MemBudget {
		m.Skipped, m.Reason = true, "MEM"
		e.progress("%-9s %-4s r=%-3d |Q|=%-4d skipped (MEM, est %s)",
			algoName, dataset, m.Rank, m.Q, memtrack.Human(m.EstBytes))
		return m, nil
	}
	if e.FlopBudget > 0 && m.EstFlops > e.FlopBudget {
		m.Skipped, m.Reason = true, "TIME"
		e.progress("%-9s %-4s r=%-3d |Q|=%-4d skipped (TIME, est %.1e flops)",
			algoName, dataset, m.Rank, m.Q, float64(m.EstFlops))
		return m, nil
	}
	start := time.Now()
	if err := runner.Precompute(g); err != nil {
		return m, fmt.Errorf("bench: %s precompute on %s: %w", algoName, dataset, err)
	}
	m.PrecompTime = time.Since(start)
	m.PrecompBytes = tracker.PeakByPrefix("precompute/")
	start = time.Now()
	if _, err := runner.Query(queries); err != nil {
		return m, fmt.Errorf("bench: %s query on %s: %w", algoName, dataset, err)
	}
	m.QueryTime = time.Since(start)
	m.QueryBytes = tracker.PeakByPrefix("query/")
	m.PeakBytes = tracker.Peak()
	e.progress("%-9s %-4s r=%-3d |Q|=%-4d pre=%v query=%v peak=%s",
		algoName, dataset, m.Rank, m.Q,
		m.PrecompTime.Round(time.Millisecond), m.QueryTime.Round(time.Millisecond),
		memtrack.Human(m.PeakBytes))
	return m, nil
}

// progress writes one heartbeat line when Progress is configured.
func (e *Env) progress(format string, args ...interface{}) {
	if e.Progress == nil {
		return
	}
	fmt.Fprintf(e.Progress, format+"\n", args...)
}

// Config returns the baseline.Config for the paper's defaults with the
// given rank and a fixed SVD seed.
func (e *Env) Config(rank int) baseline.Config {
	return baseline.Config{
		Damping: DefaultDamping,
		Rank:    rank,
		SVD:     svd.Options{Seed: 42},
	}
}
