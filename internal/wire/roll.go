package wire

import (
	"context"
	"fmt"
)

// RollWorkers rolls a remote cluster onto its next snapshot generation: it
// triggers each worker's own load→validate→swap via POST /admin/reload,
// strictly one worker at a time in slot order, and aborts on the first
// failure. At every instant at most one worker is mid-swap, and a failed
// worker keeps serving its old generation — so the cluster is always
// fully serving, at worst with mixed generations. A mixed cluster's
// answers combine factors of two index builds and are exact for neither,
// though they are tagged exact (see the package comment); only a roll
// that reaches every worker restores exact answers.
//
// Returns how many workers swapped. On error, workers [0, swapped) serve
// the new generation and the rest the old one; re-running after fixing
// the failed worker's snapshot converges the cluster (reloading an
// already-current worker just re-swaps the same snapshot generation).
func RollWorkers(ctx context.Context, engines []*RemoteEngine) (swapped int, err error) {
	for i, e := range engines {
		if err := ctx.Err(); err != nil {
			return swapped, fmt.Errorf("wire: roll aborted before worker %d: %w", i, err)
		}
		if _, err := e.Reload(ctx); err != nil {
			return swapped, fmt.Errorf("wire: rolling worker %d (%s): %w", i, e.Addr(), err)
		}
		swapped++
	}
	return swapped, nil
}
