package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/graph"
	"csrplus/internal/ingest"
	"csrplus/internal/shard"
	"csrplus/internal/wire"
)

func TestRunOnFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	edges := "0 1\n2 1\n3 1\n0 2\n1 0\n"
	if err := os.WriteFile(path, []byte(edges), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, "", 0, path, 4, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"nodes:         4", "edges:         5", "components:", "top in-degree hubs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Node 1 (in-degree 3) must lead the hub list.
	if !strings.Contains(out, "node 1") {
		t.Fatalf("hub list wrong:\n%s", out)
	}
}

func TestRunOnDataset(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "P2P", 64, "", 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "heavy-tailed:  false") {
		t.Fatalf("P2P stand-in should not be heavy-tailed:\n%s", buf.String())
	}
}

func TestLoadValidation(t *testing.T) {
	if _, err := load("", 0, "", 0); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := load("FB", 0, "x", 1); err == nil {
		t.Fatal("both sources accepted")
	}
	if _, err := load("", 0, "x.txt", 0); err == nil {
		t.Fatal("graph without -n accepted")
	}
	if _, err := load("NOPE", 0, "", 0); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// buildTestIndex precomputes a small CSR+ index to drive index mode.
func buildTestIndex(t *testing.T) *core.Index {
	t.Helper()
	g, err := graph.ErdosRenyi(40, 160, 7)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Precompute(g, core.Options{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestRunIndexInspect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.csrx")
	if err := core.SaveIndex(buildTestIndex(t), path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runIndex(&buf, path, "", "", nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"nodes:         40", "rank:          4", "tier:          f64"} {
		if !strings.Contains(out, want) {
			t.Fatalf("index output missing %q:\n%s", want, out)
		}
	}
	if err := runIndex(&buf, path, "", "int8", nil); err == nil {
		t.Fatal("-quantize without -convert accepted")
	}
}

// TestRunIndexOnShardFile: -index opens the CSRS file of a shard
// directory too, reports the rows it holds, and refuses to rewrite it.
func TestRunIndexOnShardFile(t *testing.T) {
	sh, err := buildTestIndex(t).Shard(10, 25)
	if err != nil {
		t.Fatal(err)
	}
	_, path, err := core.WriteShardSnapshot(core.ShardDir(t.TempDir(), 1), sh)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runIndex(&buf, path, "", "", nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nodes:         40", "shard rows:    [10, 25)", "rank:          4", "tier:          f64"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("shard output missing %q:\n%s", want, buf.String())
		}
	}
	if err := runIndex(&buf, path, filepath.Join(t.TempDir(), "out.csrx"), "", nil); err == nil {
		t.Fatal("-convert of a shard file accepted")
	}
	// A file that loads as neither kind reports both failures, so a torn
	// shard file names its failing check, not just "not an index".
	if err := os.Truncate(path, 5000); err != nil {
		t.Fatal(err)
	}
	err = runIndex(&buf, path, "", "", nil)
	if !errors.Is(err, core.ErrCorrupt) || !strings.Contains(err.Error(), "as a shard file") {
		t.Fatalf("torn shard file: err = %v, want wrapped ErrCorrupt naming the shard load", err)
	}
}

// TestRunIndexConvertsV3: the two-factor v3 file of an exact index, which
// no server loads, is inspected — σ and the λ of the factor derived from it
// side by side — and converted to a v4 file that loads and answers; a
// quantized v3 file and a v3 shard file are refused, naming what to do.
func TestRunIndexConvertsV3(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	src := filepath.Join(testdata, "index.v3-f64.csrx")
	if _, err := core.LoadIndex(src); !errors.Is(err, core.ErrFormat) {
		t.Fatalf("LoadIndex of a v3 file: err = %v, want ErrFormat", err)
	}
	dst := filepath.Join(t.TempDir(), "v4.csrx")
	var buf bytes.Buffer
	if err := runIndex(&buf, src, dst, "", nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"format:        v3", "nodes:         6", "sigma:         ", "lambda:        ", "build:         ", "written:       " + dst} {
		if !strings.Contains(out, want) {
			t.Fatalf("conversion output missing %q:\n%s", want, out)
		}
	}
	back, err := core.LoadIndex(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, err := back.QueryOne(3); err != nil || back.Build() == 0 {
		t.Fatalf("converted index: build %x, query err %v", back.Build(), err)
	}
	buf.Reset()
	if err := runIndex(&buf, dst, "", "", nil); err != nil || !strings.Contains(buf.String(), "format:        v4") {
		t.Fatalf("inspecting the converted file: %v\n%s", err, buf.String())
	}
	for file, want := range map[string]string{"index.v3-int8.csrx": "re-quantize from the exact file", "shard.v3-f64.csrs": "csrstat -convert"} {
		if err := runIndex(&buf, filepath.Join(testdata, file), dst, "", nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a refusal naming %q", file, err, want)
		}
	}
}

func TestRunIndexConvertQuantized(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "exact.csrx")
	ix := buildTestIndex(t)
	if err := core.SaveIndex(ix, src); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "small.csrx")
	var buf bytes.Buffer
	if err := runIndex(&buf, src, dst, "int8", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "written:") {
		t.Fatalf("no conversion reported:\n%s", buf.String())
	}
	back, err := core.LoadIndex(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Tier() != core.TierI8 {
		t.Fatalf("converted tier = %v, want int8", back.Tier())
	}
	if back.QuantizationBound() <= 0 {
		t.Fatal("converted index carries no quantization bound")
	}
	// Inspecting the quantized file surfaces tier and bound.
	buf.Reset()
	if err := runIndex(&buf, dst, "", "", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tier:          int8") || !strings.Contains(buf.String(), "quant bound:") {
		t.Fatalf("quantized inspect output wrong:\n%s", buf.String())
	}
}

// TestRunIndexSplit: -convert DIR -split K publishes what a cluster of K
// workers boots from — three wire.BootWorkers over the output, behind a
// router, answer top-k and scores with the whole index's bits — and a
// -split that cannot be honoured is refused by name.
func TestRunIndexSplit(t *testing.T) {
	src := filepath.Join(t.TempDir(), "whole.csrx")
	ix := buildTestIndex(t)
	if err := core.SaveIndex(ix, src); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	var buf bytes.Buffer
	k := 3
	if err := runIndex(&buf, src, root, "", &k); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "published:") {
		t.Fatalf("no publish reported:\n%s", buf.String())
	}
	slots := make([]shard.Slot, k)
	for s := range slots {
		w, err := wire.BootWorker(wire.WorkerConfig{Shard: s, SnapshotDir: core.ShardDir(root, s)})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		e, err := wire.Dial(context.Background(), srv.URL, wire.Options{Shard: s})
		if err != nil {
			t.Fatal(err)
		}
		slots[s] = e
	}
	cluster, err := shard.NewRouterSlots(slots)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := shard.NewRouterFromIndex(ix, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, queries := range [][]int{{7}, {0, 39}, {13, 14, 26, 13}} { // 13 | 14 and 26 | 27 are the cuts
		want, err := whole.TopK(ctx, queries, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.TopK(ctx, queries, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("top-10 of %v over the split = %v, want %v", queries, got, want)
		}
		targets := []int{0, 13, 14, 26, 27, 39}
		wantS, err := whole.Scores(ctx, queries, targets, 0)
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := cluster.Scores(ctx, queries, targets, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantS.Data {
			if math.Float64bits(gotS.Data[i]) != math.Float64bits(wantS.Data[i]) {
				t.Fatalf("scores of %v over the split = %v, want %v", queries, gotS.Data, wantS.Data)
			}
		}
	}

	// -quantize composes as with any -convert.
	if err := runIndex(&buf, src, t.TempDir(), "int8", &k); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		convert string
		k       int
	}{{"", 3}, {t.TempDir(), 0}, {t.TempDir(), -2}, {t.TempDir(), ix.N() + 1}} {
		if err := runIndex(&buf, src, tc.convert, "", &tc.k); err == nil || !strings.Contains(err.Error(), "-split") {
			t.Errorf("-convert %q -split %d: err = %v, want a refusal naming -split", tc.convert, tc.k, err)
		}
	}
}

func TestRunWal(t *testing.T) {
	dir := t.TempDir()
	w, err := ingest.Open(dir, ingest.WALOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]ingest.Record{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 0, Weight: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := runWal(&buf, dir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"records:       3", "seq range:     1 - 3", "status:        clean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	// A crash mid-append leaves a torn tail: reported, but not an error.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	buf.Reset()
	if err := runWal(&buf, dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "torn tail (3 bytes)") {
		t.Fatalf("torn tail not reported:\n%s", buf.String())
	}

	// Damage inside the acknowledged history is fatal and exits non-zero.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Add a later segment so the damaged one is not the final (torn-tail
	// eligible) segment.
	if err := os.WriteFile(filepath.Join(dir, "wal-ffffffffffffffff.seg"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := runWal(&buf, dir); err == nil {
		t.Fatalf("corrupt history not fatal:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "CORRUPT") {
		t.Fatalf("corrupt status not printed:\n%s", buf.String())
	}
}
