package reload

// release_test.go pins the generation-lifetime contract Candidate.Release
// exists for: a mapped v2 snapshot's factors must stay valid until the
// serve layer has drained every in-flight query against them, and must
// be freed exactly once afterwards.

import (
	"context"
	"sync/atomic"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/graph"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
)

// routerRanked is the generation csrserver installs — Router.Ranked —
// over the K=1 router of a small real index.
func routerRanked(t *testing.T) serve.Ranked {
	t.Helper()
	g, err := graph.ErdosRenyi(40, 160, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Precompute(g, core.Options{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouterFromIndex(ix, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rt.Ranked()
}

func TestReleaseDeferredUntilNextSwap(t *testing.T) {
	ranked := routerRanked(t)
	sv := serve.NewRanked(ranked, serve.Config{})
	t.Cleanup(sv.Close)

	var bootFreed, aFreed, bFreed atomic.Int64
	next := func(release func()) LoadFunc {
		return func(ctx context.Context) (*Candidate, error) {
			return &Candidate{Ranked: ranked, Meta: Meta{Source: "rebuild"}, Release: release}, nil
		}
	}

	m := New(sv, next(func() { aFreed.Add(1) }), Meta{Source: "boot"})
	m.SetBootRelease(func() { bootFreed.Add(1) })

	// First reload swaps the boot generation out: boot's pin is released
	// (after the drain inside the swap), candidate A's must NOT be — A
	// is now the one serving traffic.
	if _, err := m.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if bootFreed.Load() != 1 {
		t.Fatalf("boot release called %d times after first swap, want 1", bootFreed.Load())
	}
	if aFreed.Load() != 0 {
		t.Fatal("serving generation's release called while it still takes traffic")
	}

	// Second reload brings in B: A drains and is released, B stays
	// pinned, boot is not double-released.
	m.load = next(func() { bFreed.Add(1) })
	if _, err := m.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if bootFreed.Load() != 1 || aFreed.Load() != 1 || bFreed.Load() != 0 {
		t.Fatalf("after second swap: boot=%d a=%d b=%d, want 1/1/0",
			bootFreed.Load(), aFreed.Load(), bFreed.Load())
	}
}

func TestReleaseOnValidationFailure(t *testing.T) {
	ranked := routerRanked(t)
	sv := serve.NewRanked(ranked, serve.Config{})
	t.Cleanup(sv.Close)

	var rejectedFreed, servingFreed atomic.Int64
	load := func(ctx context.Context) (*Candidate, error) {
		c := &Candidate{Ranked: ranked, Release: func() { rejectedFreed.Add(1) }}
		c.N = 0 // fails Validate
		return c, nil
	}
	m := New(sv, load, Meta{Source: "boot"})
	m.SetBootRelease(func() { servingFreed.Add(1) })

	if _, err := m.Reload(context.Background()); err == nil {
		t.Fatal("reload of invalid candidate succeeded")
	}
	// The rejected candidate never took traffic — freed immediately; the
	// serving generation keeps its pin.
	if rejectedFreed.Load() != 1 {
		t.Fatalf("rejected candidate released %d times, want 1", rejectedFreed.Load())
	}
	if servingFreed.Load() != 0 {
		t.Fatal("serving generation released on a failed reload")
	}
}

func TestReleaseOnSwapRefused(t *testing.T) {
	ranked := routerRanked(t)
	sv := serve.NewRanked(ranked, serve.Config{})

	var freed atomic.Int64
	load := func(ctx context.Context) (*Candidate, error) {
		return &Candidate{Ranked: ranked, Release: func() { freed.Add(1) }}, nil
	}
	m := New(sv, load, Meta{Source: "boot"})

	sv.Close() // swap will be refused with ErrClosed
	if _, err := m.Reload(context.Background()); err == nil {
		t.Fatal("reload against closed server succeeded")
	}
	if freed.Load() != 1 {
		t.Fatalf("candidate released %d times after refused swap, want 1", freed.Load())
	}
}
