package reload_test

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/reload"
)

// copyShard returns a shard over [lo, hi) backed by its own allocation
// (a wire-format round trip), so tests can corrupt it without touching
// the source index's shared backing array.
func copyShard(ix *core.Index, lo, hi int) *core.IndexShard {
	sh, err := ix.Shard(lo, hi)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := sh.WriteTo(&buf); err != nil {
		panic(err)
	}
	back, err := core.ReadShard(&buf)
	if err != nil {
		panic(err)
	}
	return back
}

// TestValidateShardCompacted runs the shard gate over an index that leaves
// its all-zero rows out (internal/core's compacted fixture): the
// whole index and every cut of it pass — a cut that stores nothing
// included, which has only implicit rows to probe — and a non-finite entry
// in a stored row's factors is still refused, through the probes, which are
// stored rows where there are any.
func TestValidateShardCompacted(t *testing.T) {
	ix, err := core.LoadIndex("../core/testdata/index.v5-compact.csrx")
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Stored() != 36 || ix.StoredNode(3) != 4 {
		t.Fatalf("fixture stores %d rows, the fourth node %d: want 36 and 4", ix.Stored(), ix.StoredNode(3))
	}
	for _, cut := range [][2]int{{0, 48}, {3, 24}, {3, 4}, {47, 48}, {8, 11}} {
		sh, err := ix.Shard(cut[0], cut[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := reload.ValidateShard(sh); err != nil {
			t.Fatalf("shard [%d, %d) storing %d rows: %v", cut[0], cut[1], sh.Stored(), err)
		}
	}
	// [3, 24) starts on a row it does not store; its first probe is node 4.
	bad := copyShard(ix, 3, 24)
	bad.URow(3)[0] = math.NaN() // an implicit row reads as a fresh row of zeros: nothing to poison
	if err := reload.ValidateShard(bad); err != nil {
		t.Fatalf("writing to an implicit row's zeros changed the shard: %v", err)
	}
	bad.URow(4)[0] = math.Inf(1)
	if err := reload.ValidateShard(bad); !errors.Is(err, reload.ErrValidation) {
		t.Fatalf("shard with a non-finite stored U row: err = %v, want ErrValidation", err)
	}
}

// TestValidateShardStreams pins that the gate's every-row pass allocates
// nothing of the shard's length: it used to fill a Rows x 3 block. What it
// may allocate is the scan's pooled scratch (131 KB at three probes), when
// the pool has none to hand out.
func TestValidateShardStreams(t *testing.T) {
	g, err := csrplus.GenerateDataset("P2P", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := eng.CoreIndex()
	if err := reload.ValidateShard(&ix.IndexShard); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := reload.ValidateShard(&ix.IndexShard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, block := after.TotalAlloc-before.TotalAlloc, uint64(ix.N())*3*8; got > block/2 {
		t.Fatalf("validating %d rows (%d stored) allocated %d bytes; a rows x 3 block is %d", ix.N(), ix.Stored(), got, block)
	}
}
