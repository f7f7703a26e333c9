// Package shard implements horizontal sharding for CSR+ serving: the
// factor matrices are partitioned by contiguous node range into K shard
// slots, each with its own atomic generation lifecycle, behind a
// stateless router that fans multi-source queries to every shard in
// parallel and merges the per-shard partial top-k lists into an exact
// global answer. A csrserver's own index is the K=1 router; K > 1 is a
// cluster of -shardworker processes (internal/wire), whose per-shard
// snapshot directories PublishSnapshots writes.
//
// The exactness argument has two halves. Scores: output row i of phase II
// depends only on row i of Z plus the U rows of the query nodes, so a
// shard holding rows [lo, hi) computes exactly the same float64 for every
// node it owns as the monolithic engine — same kernel, same accumulation
// order (core.IndexShard's one scan). Selection: each candidate node
// lives on exactly one shard, so any node in the global top-k is in the
// top-k of its own shard, and the deterministic merge of per-shard top-k
// lists (topk.Merge, under the package-wide score-desc/node-asc ordering)
// is the global top-k. Together: the router's answers are bitwise
// identical to a single engine over the whole graph, at any shard count
// and any partition boundaries.
//
// The router consumes shards through the Slot interface (slot.go): Local
// wraps an in-process shard behind an atomic generation pointer, and
// internal/wire's RemoteEngine speaks the same contract to a shard
// worker process over HTTP — the wire split slots in behind the same
// Router surface, merge and bound machinery included.
package shard

import (
	"errors"
	"fmt"
	"sort"
)

// ErrPlan is returned (wrapped) for invalid partition plans.
var ErrPlan = errors.New("shard: invalid partition plan")

// ErrShard is returned (wrapped) when a shard does not fit its slot:
// wrong node range, node count, rank, or damping factor.
var ErrShard = errors.New("shard: shard does not match its slot")

// Plan is a partition of [0, n) into K contiguous node ranges, described
// by K+1 fenceposts: shard s owns [bounds[s], bounds[s+1]). Immutable.
type Plan struct {
	bounds []int
}

// NewPlan validates fenceposts: strictly increasing, starting at 0,
// ending at n (the last bound), with at least one shard. Empty shards
// are rejected — a shard that owns no nodes can never answer for any.
func NewPlan(bounds []int) (Plan, error) {
	if len(bounds) < 2 {
		return Plan{}, fmt.Errorf("%w: need at least 2 fenceposts, got %d", ErrPlan, len(bounds))
	}
	if bounds[0] != 0 {
		return Plan{}, fmt.Errorf("%w: first fencepost %d, want 0", ErrPlan, bounds[0])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return Plan{}, fmt.Errorf("%w: fenceposts not strictly increasing at %d (%d then %d)", ErrPlan, i, bounds[i-1], bounds[i])
		}
	}
	return Plan{bounds: append([]int(nil), bounds...)}, nil
}

// SplitEven partitions [0, n) into k near-equal contiguous ranges (the
// first n mod k shards get one extra node). k is clamped to n — a graph
// cannot usefully spread over more shards than it has nodes.
func SplitEven(n, k int) (Plan, error) {
	if n < 1 || k < 1 {
		return Plan{}, fmt.Errorf("%w: n=%d k=%d", ErrPlan, n, k)
	}
	if k > n {
		k = n
	}
	bounds := make([]int, k+1)
	base, extra := n/k, n%k
	for s := 0; s < k; s++ {
		size := base
		if s < extra {
			size++
		}
		bounds[s+1] = bounds[s] + size
	}
	return Plan{bounds: bounds}, nil
}

// K returns the shard count.
func (p Plan) K() int { return len(p.bounds) - 1 }

// N returns the node count the plan covers.
func (p Plan) N() int { return p.bounds[len(p.bounds)-1] }

// Range returns shard s's node range [lo, hi).
func (p Plan) Range(s int) (lo, hi int) { return p.bounds[s], p.bounds[s+1] }

// Owner returns the shard owning global node q, which must be in [0, n).
func (p Plan) Owner(q int) int {
	// sort.Search finds the first fencepost > q; the owning shard is one
	// before it.
	return sort.Search(len(p.bounds), func(i int) bool { return p.bounds[i] > q }) - 1
}
