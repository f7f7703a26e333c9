// Package shardtest is what the test suites of shard and reload share to
// read a router's scores as columns. The router has no call that returns
// the n x |Q| block — core.Index.QueryRankInto is the only producer of one
// — so the suites that hold a router to that oracle entry by entry read
// the block through Scores.
package shardtest

import (
	"context"

	"csrplus/internal/dense"
	"csrplus/internal/shard"
)

// Columns returns S[:, queries] at the given rank (<= 0 is full) as rt
// serves it: every node scored against every query by Router.Scores — the
// call behind /similarity — laid out n x |Q| like
// core.Index.QueryRankInto's answer, so the two compare entry by entry.
func Columns(ctx context.Context, rt *shard.Router, queries []int, rank int) (*dense.Mat, error) {
	all := make([]int, rt.N())
	for i := range all {
		all[i] = i
	}
	scores, err := rt.Scores(ctx, queries, all, rank)
	if err != nil {
		return nil, err
	}
	return scores.T(), nil
}
