//go:build faultinject

package chaos

// chaos_wire_test.go covers the two fault sites the wire split added:
// wire/dial (the whole request fails before leaving the client) and
// wire/read (the response stream tears mid-body). Plus the scenario the
// sites exist to protect: a shard worker crashing in the middle of a
// rolling remote reload, leaving a mixed-generation, partially-dead
// cluster that must keep serving degraded-but-tagged answers and
// converge once the worker comes back.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/fault"
	"csrplus/internal/graph"
	"csrplus/internal/shard"
	"csrplus/internal/wire"
)

// wireAcceptable reports whether err is a failure a wire-router caller
// may legitimately observe under injected transport chaos. Anything else
// leaking through — a raw connection string, an unwrapped decode error —
// is a bug in the client's error taxonomy.
func wireAcceptable(err error) bool {
	return errors.Is(err, shard.ErrSlotDown) ||
		errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// wireCluster builds k shard workers over ix behind httptest servers and
// returns a wire router plus its remote engines. Dialing and bound
// priming happen before any fault is armed — boot is not the scenario
// under test here.
func wireCluster(t *testing.T, ix *core.Index, k int, opt wire.Options) (*shard.Router, []*wire.RemoteEngine) {
	t.Helper()
	shards, err := shard.Split(ix, k)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*wire.RemoteEngine, k)
	slots := make([]shard.Slot, k)
	for s := range shards {
		w := wire.NewWorker(shards[s], 0, wire.WorkerConfig{Shard: s})
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		o := opt
		o.Shard = s
		e, err := wire.Dial(context.Background(), srv.URL, o)
		if err != nil {
			t.Fatal(err)
		}
		engines[s], slots[s] = e, e
	}
	rt, err := shard.NewRouterSlots(slots)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.PrimeBound(); err != nil {
		t.Fatal(err)
	}
	return rt, engines
}

// TestChaosWireAnswersExactOrTaggedOrTyped hammers the wire router while
// dials fail and response bodies tear. Invariants: every query resolves
// as (a) an exact answer bitwise-identical to the in-process router,
// (b) a degraded answer tagged with the missing-shard count, the exact
// |Q|-scaled error bound, and per-item scores that are still bitwise
// members of the exact full ranking, or (c) a typed error. Raw transport
// errors, wrong bounds, or corrupted scores are all bugs.
func TestChaosWireAnswersExactOrTaggedOrTyped(t *testing.T) {
	ix, _ := fixture(t)
	const shardK = 3
	querySets := [][]int{{7}, {0, ix.N() - 1}, {13, 42, 99}}
	local, err := shard.NewRouterFromIndex(ix, shardK)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The exact aggregate score of every node for every query set: the
	// ground truth a degraded answer's surviving items must still match.
	exact := make([]map[int]float64, len(querySets))
	want := make([][]int, len(querySets)) // exact top-10 node sets
	for i, qs := range querySets {
		all, err := local.TopKRank(ctx, qs, ix.N(), 0)
		if err != nil {
			t.Fatal(err)
		}
		exact[i] = make(map[int]float64, len(all))
		for _, it := range all {
			exact[i][it.Node] = it.Score
		}
		top, err := local.TopKRank(ctx, qs, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range top {
			want[i] = append(want[i], it.Node)
		}
	}
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rt, engines := wireCluster(t, ix, shardK, wire.Options{
				Timeout:     5 * time.Second,
				MaxAttempts: 2,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  4 * time.Millisecond,
				Seed:        seed,
			})
			fault.Enable(seed)
			defer fault.Disable()
			fault.Arm(fault.SiteWireDial, fault.Plan{ErrProb: 0.25})
			fault.Arm(fault.SiteWireRead, fault.Plan{ErrProb: 0.15})

			exactCalls, degraded, failed := 0, 0, 0
			for iter := 0; iter < 60; iter++ {
				qi := iter % len(querySets)
				qs := querySets[qi]
				res, err := rt.TopKTagged(ctx, qs, 10, 0)
				if err != nil {
					if !wireAcceptable(err) {
						t.Fatalf("iter %d: untyped error under chaos: %v", iter, err)
					}
					failed++
					continue
				}
				if res.Missing == 0 {
					if res.ErrorBound != 0 {
						t.Fatalf("iter %d: full answer carries bound %v", iter, res.ErrorBound)
					}
					if len(res.Items) != len(want[qi]) {
						t.Fatalf("iter %d: %d items, want %d", iter, len(res.Items), len(want[qi]))
					}
					for j, it := range res.Items {
						if it.Node != want[qi][j] || math.Float64bits(it.Score) != math.Float64bits(exact[qi][it.Node]) {
							t.Fatalf("iter %d item %d: (%d, %x) is not the exact answer", iter, j, it.Node, math.Float64bits(it.Score))
						}
					}
					exactCalls++
					continue
				}
				degraded++
				if res.Missing >= shardK {
					t.Fatalf("iter %d: %d missing shards on a %d-shard answer", iter, res.Missing, shardK)
				}
				if wantBound := float64(len(qs)) * rt.MissingShardBound(); res.ErrorBound != wantBound {
					t.Fatalf("iter %d: %d missing, bound %v, want |Q|*MissingShardBound = %v", iter, res.Missing, res.ErrorBound, wantBound)
				}
				for j, it := range res.Items {
					ref, ok := exact[qi][it.Node]
					if !ok || math.Float64bits(it.Score) != math.Float64bits(ref) {
						t.Fatalf("iter %d degraded item %d: node %d score %x is not its exact score", iter, j, it.Node, math.Float64bits(it.Score))
					}
				}
			}
			if fault.Injected(fault.SiteWireDial)+fault.Injected(fault.SiteWireRead) == 0 {
				t.Fatal("chaos never fired; the test asserted nothing")
			}
			t.Logf("seed %d: %d exact, %d degraded, %d typed failures; dial faults %d, read faults %d",
				seed, exactCalls, degraded, failed,
				fault.Injected(fault.SiteWireDial), fault.Injected(fault.SiteWireRead))
			for s, e := range engines {
				st := e.Stats()
				if st.Requests == 0 {
					t.Fatalf("shard %d saw no requests", s)
				}
			}
		})
	}
}

// TestChaosWireWorkerCrashMidRoll kills one worker between publishing a
// new snapshot generation and rolling the cluster onto it. The roll must
// abort at the dead worker with a typed error and an accurate swap
// count, the mixed-generation cluster must keep serving degraded-but-
// tagged answers, and once the worker restarts from its snapshot
// directory a re-run of the roll must converge the whole cluster to the
// new generation with bitwise-exact answers.
func TestChaosWireWorkerCrashMidRoll(t *testing.T) {
	g, err := graph.ErdosRenyi(120, 700, 7)
	if err != nil {
		t.Fatal(err)
	}
	ixA, err := core.Precompute(g, core.Options{Rank: 6})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.ErdosRenyi(120, 700, 8)
	if err != nil {
		t.Fatal(err)
	}
	ixB, err := core.Precompute(g2, core.Options{Rank: 6})
	if err != nil {
		t.Fatal(err)
	}
	const shardK = 3
	root := t.TempDir()
	if err := shard.PublishSnapshots(root, ixA, shardK); err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, shardK)
	engines := make([]*wire.RemoteEngine, shardK)
	slots := make([]shard.Slot, shardK)
	var crashServer *http.Server
	var crashAddr string
	opt := wire.Options{
		Timeout:     5 * time.Second,
		MaxAttempts: 1,
		BaseBackoff: time.Millisecond,
		// The recovery poll below hammers a dead address; a breaker would
		// turn that into a 5s real-time cooldown stall. Breakers have
		// their own test — this one is about the roll.
		BreakerThreshold: -1,
		AdminToken:       "sesame",
		Seed:             1,
	}
	for s := range dirs {
		dirs[s] = core.ShardDir(root, s)
		w, err := wire.BootWorker(wire.WorkerConfig{Shard: s, SnapshotDir: dirs[s], AdminToken: "sesame"})
		if err != nil {
			t.Fatal(err)
		}
		var url string
		if s == 1 {
			// The crash victim runs on a hand-rolled listener so the
			// restarted worker can rebind the same address.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			crashAddr = ln.Addr().String()
			crashServer = &http.Server{Handler: w.Handler()}
			go crashServer.Serve(ln)
			url = "http://" + crashAddr
		} else {
			srv := httptest.NewServer(w.Handler())
			t.Cleanup(srv.Close)
			url = srv.URL
		}
		o := opt
		o.Shard = s
		e, err := wire.Dial(context.Background(), url, o)
		if err != nil {
			t.Fatal(err)
		}
		engines[s], slots[s] = e, e
	}
	rt, err := shard.NewRouterSlots(slots)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.PrimeBound(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Publish generation 2 and crash worker 1 before the roll reaches it.
	if err := shard.PublishSnapshots(root, ixB, shardK); err != nil {
		t.Fatal(err)
	}
	crashServer.Close()
	swapped, err := wire.RollWorkers(ctx, engines)
	if err == nil || swapped != 1 {
		t.Fatalf("roll across a crashed worker = %d, %v; want 1 swap and an error", swapped, err)
	}
	if !errors.Is(err, shard.ErrSlotDown) {
		t.Fatalf("crashed-worker roll error is untyped: %v", err)
	}

	// Degraded-but-serving: queries not owned by the dead shard still
	// answer, tagged with the missing shard and the exact inflated bound.
	lo1, hi1 := rt.Plan().Range(1)
	liveQuery := 0
	if liveQuery >= lo1 && liveQuery < hi1 {
		t.Fatalf("test assumes node 0 is not on shard 1 (shard 1 covers [%d, %d))", lo1, hi1)
	}
	res, err := rt.TopKTagged(ctx, []int{liveQuery}, 5, 0)
	if err != nil {
		t.Fatalf("mixed-generation degraded serve failed: %v", err)
	}
	if res.Missing != 1 {
		t.Fatalf("degraded serve tagged %d missing shards, want 1", res.Missing)
	}
	if wantBound := 1 * rt.MissingShardBound(); res.ErrorBound != wantBound {
		t.Fatalf("degraded bound %v, want %v", res.ErrorBound, wantBound)
	}
	for _, it := range res.Items {
		if math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
			t.Fatalf("degraded answer carries non-finite score for node %d", it.Node)
		}
	}
	if _, err := rt.TopKTagged(ctx, []int{lo1}, 5, 0); err == nil {
		t.Fatal("query owned by the crashed shard must fail, not fabricate scores")
	}

	// Restart the worker from its snapshot directory (a fresh process
	// would do exactly this) and wait for the address to answer again.
	w1, err := wire.BootWorker(wire.WorkerConfig{Shard: 1, SnapshotDir: dirs[1], AdminToken: "sesame"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", crashAddr)
	if err != nil {
		t.Fatal(err)
	}
	restarted := &http.Server{Handler: w1.Handler()}
	go restarted.Serve(ln)
	t.Cleanup(func() { restarted.Close() })
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := engines[1].BoundTerms(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted worker never became reachable")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Convergence: the re-run rolls every worker (the restarted one
	// booted straight into the new snapshot; re-swapping it is harmless)
	// and the cluster answers bitwise-identically to generation B.
	swapped, err = wire.RollWorkers(ctx, engines)
	if err != nil || swapped != shardK {
		t.Fatalf("recovery roll = %d, %v; want %d, nil", swapped, err, shardK)
	}
	localB, err := shard.NewRouterFromIndex(ixB, shardK)
	if err != nil {
		t.Fatal(err)
	}
	queries := []int{3, 77}
	want, err := localB.TopKRank(ctx, queries, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.TopKTagged(ctx, queries, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Missing != 0 {
		t.Fatalf("converged cluster still tagged %d missing", got.Missing)
	}
	for i := range want {
		if got.Items[i] != want[i] {
			t.Fatalf("post-recovery item %d: (%d, %x), want (%d, %x)", i,
				got.Items[i].Node, math.Float64bits(got.Items[i].Score),
				want[i].Node, math.Float64bits(want[i].Score))
		}
	}
}
