package reload

import (
	"context"
	"fmt"
	"math"

	"csrplus/internal/core"
	"csrplus/internal/dense"
)

// ValidateShard smoke-tests a shard candidate before it may take traffic:
// the rows it stores must be rows it can own (core.IndexShard.CheckStored),
// and EVERY one of them is scored against probe nodes the shard owns — one
// pass of the scan, a band at a time, nothing of the shard's length
// allocated — and must come out finite, as must each probe's own positive
// self-similarity. It is the every-stored-row finite scan of the factors —
// what Validate's few cells and a top-k selector, which drops NaN rows
// silently, cannot be — so every way a shard enters service runs it: a
// worker's boot and reload, and csrserver's local boots and reloads (whole
// index = the [0, n) shard). The probes are stored rows where the
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
