// Package baseline implements every comparison algorithm of the paper's
// evaluation (§4.1 "Competitors") plus the related-work methods of its
// Table 1, behind one uniform Runner interface the experiment harness and
// the public facade drive:
//
//   - CSRPlus  — adapter over internal/core (this paper's algorithm)
//   - NI       — Li et al. [4]: explicit tensor products (CSR-NI)
//   - IT       — Rothe & Schütze [6]: dense all-pairs iteration (CSR-IT)
//   - RLS      — Kusumoto et al. [2] adapted to CoSimRank (CSR-RLS)
//   - CoSimMate— Yu & McCann [11]: all-pairs repeated squaring
//   - RPCoSim  — Yang [9]: Gaussian random-projection estimation
//   - Exact    — converged per-query Horner evaluation (ground truth)
//
// All methods compute (approximations of) the same quantity: the
// multi-source CoSimRank block [S]_{*,Q} of Eq. (1).
package baseline

import (
	"errors"
	"fmt"
	"math"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/memtrack"
	"csrplus/internal/svd"
)

// ErrNotPrecomputed is returned when Query is called before Precompute.
var ErrNotPrecomputed = errors.New("baseline: Query before Precompute")

// ErrQuery is returned (wrapped) for invalid query sets.
var ErrQuery = errors.New("baseline: invalid query set")

// Config carries the parameters shared by all algorithms, matching the
// paper's §4.1 defaults: c = 0.6, r = 5, |Q| = 100, and — "for fairness of
// comparison" — iteration count K equal to the low rank r for the
// iterative methods.
type Config struct {
	// Damping is the CoSimRank damping factor c. Default 0.6.
	Damping float64
	// Rank is the SVD rank r (CSR+, NI) and, per the paper's fairness
	// rule, the iteration count K for IT and RLS. Default 5.
	Rank int
	// Eps is the target accuracy for the converging methods. Default 1e-5.
	Eps float64
	// SketchDim is RP-CoSim's projection dimension d. Default 128.
	SketchDim int
	// SVD tunes the truncated SVD for CSR+ and NI.
	SVD svd.Options
	// Tracker receives analytic memory accounting (may be nil).
	Tracker *memtrack.Tracker
}

// WithDefaults fills zero fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	if c.Damping == 0 {
		c.Damping = core.DefaultDamping
	}
	if c.Rank == 0 {
		c.Rank = core.DefaultRank
	}
	if c.Eps == 0 {
		c.Eps = core.DefaultEps
	}
	if c.SketchDim == 0 {
		c.SketchDim = 128
	}
	return c
}

// Runner is the uniform algorithm interface the harness drives. A Runner
// is single-use: Precompute once, then Query any number of times.
type Runner interface {
	// Name returns the algorithm's display name as used in the paper.
	Name() string
	// EstimateBytes predicts the peak analytic memory in bytes needed to
	// precompute on a graph of n nodes / m edges and answer a |Q|-sized
	// query, without allocating anything. The harness's memory-budget
	// guard consults this to reproduce the paper's "crashed due to
	// memory" markers without actually exhausting the machine.
	EstimateBytes(n int, m int64, q int) int64
	// EstimateFlops predicts the dominant floating-point operation count
	// of precompute plus one |Q|-sized query. The harness's time guard
	// skips cells whose estimate exceeds its budget, so a single slow
	// baseline cannot stall a whole figure on a small machine.
	EstimateFlops(n int, m int64, q int) int64
	// Precompute builds whatever index the algorithm keeps.
	Precompute(g *graph.Graph) error
	// Query returns the n x |Q| block [S]_{*,Q}.
	Query(queries []int) (*dense.Mat, error)
}

// New returns a Runner by the paper's algorithm name: "CSR+", "CSR-NI",
// "CSR-IT", "CSR-RLS", "CoSimMate", "RP-CoSim" or "Exact".
func New(name string, cfg Config) (Runner, error) {
	switch name {
	case "CSR+":
		return NewCSRPlus(cfg), nil
	case "CSR-NI":
		return NewNI(cfg), nil
	case "CSR-IT":
		return NewIT(cfg), nil
	case "CSR-RLS":
		return NewRLS(cfg), nil
	case "CoSimMate":
		return NewCoSimMate(cfg), nil
	case "RP-CoSim":
		return NewRPCoSim(cfg), nil
	case "Exact":
		return NewExact(cfg), nil
	default:
		return nil, fmt.Errorf("baseline: unknown algorithm %q", name)
	}
}

// Names lists the available algorithm names in the paper's order.
func Names() []string {
	return []string{"CSR+", "CSR-NI", "CSR-IT", "CSR-RLS", "CoSimMate", "RP-CoSim", "Exact"}
}

// AvgDiff is the paper's §4.2.3 accuracy measure:
// (1/(n·|Q|)) · Σ_{i,j} |Ŝ[i,j] − S[i,j]| over the queried block.
// Both matrices must be n x |Q|.
func AvgDiff(approx, exact *dense.Mat) (float64, error) {
	if approx.Rows != exact.Rows || approx.Cols != exact.Cols {
		return 0, fmt.Errorf("baseline: AvgDiff %dx%d vs %dx%d: shapes differ",
			approx.Rows, approx.Cols, exact.Rows, exact.Cols)
	}
	sum := 0.0
	for i, v := range approx.Data {
		sum += math.Abs(v - exact.Data[i])
	}
	return sum / float64(len(approx.Data)), nil
}

// validateQueries checks query ids against the node count.
func validateQueries(queries []int, n int) error {
	if len(queries) == 0 {
		return fmt.Errorf("baseline: empty query set: %w", ErrQuery)
	}
	for _, q := range queries {
		if q < 0 || q >= n {
			return fmt.Errorf("baseline: node %d not in [0, %d): %w", q, n, ErrQuery)
		}
	}
	return nil
}

// seriesLength returns the number of series terms needed to push the tail
// Σ_{k>K} c^k below eps: K = ⌈log_c(eps·(1−c))⌉.
func seriesLength(c, eps float64) int {
	k := int(math.Ceil(math.Log(eps*(1-c)) / math.Log(c)))
	if k < 1 {
		k = 1
	}
	return k
}
