package reload

// rolling.go extends the reload lifecycle to a sharded backend: instead
// of one load→validate→swap over a monolithic engine, a rolling reload
// walks the shard slots in order and runs load→validate→swap per shard.
// Each slot's swap is atomic, so traffic is never dropped; because only
// one shard is ever mid-swap, at most 1/K of the index is "in motion" at
// any instant, and a failure mid-roll strands nothing — slots already
// rolled serve the new factors, the failed slot and its successors keep
// serving their old generation, and every answer remains exact for the
// generation that produced it (the chaos suite pins this).

import (
	"context"
	"fmt"
	"math"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/fault"
	"csrplus/internal/shard"
)

// ShardLoadFunc produces the replacement factors for shard slot s, which
// covers global node range [lo, hi). It runs on the reloading goroutine,
// never the serving path, and should honour ctx.
type ShardLoadFunc func(ctx context.Context, s, lo, hi int) (*core.IndexShard, error)

// RollShards runs one rolling reload over every slot of rt: for each
// shard in order, load a candidate, validate it (ValidateShard — BEFORE
// the swap, so a candidate that cannot answer queries never takes
// traffic), and atomically swap it in. It returns how many slots were
// swapped; on error, slots [0, swapped) serve the new generation and the
// rest keep their old one — a state the router serves exactly (per-shard
// answers never mix generations), and which the next successful roll
// converges. Callers fronting a result cache must invalidate it even on
// partial rolls: some slots changed factors.
func RollShards(ctx context.Context, rt *shard.Router, load ShardLoadFunc) (swapped int, err error) {
	for s := 0; s < rt.K(); s++ {
		if err := ctx.Err(); err != nil {
			return swapped, fmt.Errorf("reload: rolling swap at shard %d/%d: %w", s, rt.K(), err)
		}
		lo, hi := rt.Plan().Range(s)
		if err := fault.Hit(fault.SiteReloadLoad); err != nil {
			return swapped, fmt.Errorf("reload: loading shard %d/%d: %w", s, rt.K(), err)
		}
		sh, err := load(ctx, s, lo, hi)
		if err != nil {
			return swapped, fmt.Errorf("reload: loading shard %d/%d: %w", s, rt.K(), err)
		}
		if err := ValidateShard(sh); err != nil {
			return swapped, fmt.Errorf("reload: shard %d/%d: %w", s, rt.K(), err)
		}
		if _, err := rt.SwapShard(s, sh); err != nil {
			return swapped, fmt.Errorf("reload: shard %d/%d: %w", s, rt.K(), err)
		}
		swapped++
	}
	return swapped, nil
}

// ValidateShard smoke-tests a shard candidate before it may take traffic:
// the rows it stores must be rows it can own (core.IndexShard.CheckStored),
// and EVERY one of them is scored against probe nodes the shard owns — one
// pass of the scan, a band at a time, nothing of the shard's length
// allocated — and must come out finite, as must each probe's own positive
// self-similarity. It is the every-stored-row finite scan of the factors —
// what Validate's few cells and a top-k selector, which drops NaN rows
// silently, cannot be — so every way a shard enters service runs it: a
// roll, a worker boot and reload, and csrserver's local boots and reloads
// (whole index = the [0, n) shard). The probes are stored rows where the
// shard has any, so each row of Z meets U rows that are not all zero, and
// their U rows come from the candidate itself: validation is
// self-contained — no cross-shard gather. A row's scores are checked as
// their sum over the probes, which is finite only if each of them is.
func ValidateShard(sh *core.IndexShard) error {
	if sh == nil {
		return fmt.Errorf("%w: nil shard", ErrValidation)
	}
	if err := sh.CheckStored(); err != nil {
		return fmt.Errorf("%w: %v", ErrValidation, err)
	}
	count, node := sh.Stored(), sh.StoredNode
	if count == 0 { // nothing stored: every score is the identity's
		count, node = sh.Rows(), func(i int) int { return sh.Lo() + i }
	}
	probes := []int{node(0)}
	if count > 2 {
		probes = append(probes, node(count/2))
	}
	if count > 1 {
		probes = append(probes, node(count-1))
	}
	uq := dense.NewMat(len(probes), sh.Rank())
	for j, q := range probes {
		copy(uq.Row(j), sh.URow(q))
	}
	ctx := context.Background()
	var bad error
	err := sh.VisitScores(ctx, probes, uq, 0, func(node int, score float64) {
		if bad == nil && (math.IsNaN(score) || math.IsInf(score, 0)) {
			bad = fmt.Errorf("%w: non-finite score %v for node %d against probes %v", ErrValidation, score, node, probes)
		}
	})
	if err != nil {
		return fmt.Errorf("%w: smoke query: %v", ErrValidation, err)
	}
	if bad != nil {
		return bad
	}
	self, err := sh.ScoreRows(ctx, probes, uq, probes, 0)
	if err != nil {
		return fmt.Errorf("%w: smoke query: %v", ErrValidation, err)
	}
	for j, q := range probes {
		// The diagonal of the probes x probes block. NaN fails the test too.
		if v := self[j*len(probes)+j]; !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: self-similarity of node %d is %v, want finite and > 0", ErrValidation, q, v)
		}
	}
	return nil
}
