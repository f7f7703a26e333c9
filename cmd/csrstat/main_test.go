package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/flagmode"
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
	if err := runGraph(&buf, "", 0, path, 4, 2); err != nil {
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
	if err := runGraph(&buf, "P2P", 64, "", 0, 0); err != nil {
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
	_, path, err := core.WriteSnapshot(t.TempDir(), buildTestIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runIndex(&buf, path, "", "", nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"nodes:         40", "rank:          4", "tier:          f64", "format:        v5", "graph:         m=160 weighted=false bytes=804 crc="} {
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
	if err := runIndex(&buf, path, t.TempDir(), "", nil); err == nil {
		t.Fatal("-convert of a shard file accepted")
	}
}

// TestRunIndexReadsEachKindAsItself: the file's magic picks the reader,
// so a file fails with its own kind's error. Every v3 and v4 file is
// refused as a format (ErrFormat, never ErrCorrupt), inspected or
// converted, naming what to do instead — a stale
// shard file is not reported as a corrupt index — and a torn v5 shard file
// is ErrCorrupt, naming the shard check that failed.
func TestRunIndexReadsEachKindAsItself(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	dst := filepath.Join(t.TempDir(), "snaps")
	for file, want := range map[string]string{
		"index.v3-f64.csrx":     "rebuild it from the graph",
		"index.v3-int8.csrx":    "rebuild it from the graph",
		"index.v3-compact.csrx": "rebuild it from the graph",
		"shard.v3-f64.csrs":     "-split K",
		"index.v4-f64.csrx":     "rebuild it from the graph",
		"index.v4-sparse.csrx":  "rebuild it from the graph",
		"shard.v4-f64.csrs":     "-split K",
	} {
		for _, convert := range []string{"", dst} {
			var buf bytes.Buffer
			err := runIndex(&buf, filepath.Join(testdata, file), convert, "", nil)
			if !errors.Is(err, core.ErrFormat) || errors.Is(err, core.ErrCorrupt) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s (convert %q): err = %v, want ErrFormat alone, naming %q", file, convert, err, want)
			}
		}
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("a refused conversion wrote %s: %v", dst, err)
	}

	sh, err := buildTestIndex(t).Shard(10, 25)
	if err != nil {
		t.Fatal(err)
	}
	_, path, err := core.WriteShardSnapshot(core.ShardDir(t.TempDir(), 1), sh)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 5000); err != nil {
		t.Fatal(err)
	}
	err = runIndex(&bytes.Buffer{}, path, "", "", nil)
	if !errors.Is(err, core.ErrCorrupt) || !strings.Contains(err.Error(), "loading shard") || strings.Contains(err.Error(), "index magic") {
		t.Fatalf("torn shard file: err = %v, want the shard load's ErrCorrupt alone", err)
	}
}

func TestRunIndexConvertQuantized(t *testing.T) {
	_, src, err := core.WriteSnapshot(t.TempDir(), buildTestIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), core.SnapshotName(1))
	var buf bytes.Buffer
	if err := runIndex(&buf, src, filepath.Dir(dst), "int8", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "published:     "+dst+" (generation 1, tier int8") {
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

// TestRunIndexConvertPublishesIntoSnapshotDir: -convert publishes the
// index as the named directory's next generation — generation 3 past two,
// generation 1 in an empty one or in one it creates — which answers as the
// source does; republishing an old generation rolls the directory back to
// it; the directory is pruned to core.KeepSnapshots; and a -convert path
// that is a regular file is refused, not written over.
func TestRunIndexConvertPublishesIntoSnapshotDir(t *testing.T) {
	ix := buildTestIndex(t)
	_, src, err := core.WriteSnapshot(t.TempDir(), ix)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ErdosRenyi(40, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.Precompute(g, core.Options{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		if _, _, err := core.WriteSnapshot(dir, other); err != nil {
			t.Fatal(err)
		}
	}
	// newest loads dir's newest generation, which must be gen and answer
	// like want.
	newest := func(gen uint64, want *core.Index) {
		t.Helper()
		back, snap, recovered, err := core.RecoverSnapshot(dir)
		if err != nil || recovered || snap.Gen != gen {
			t.Fatalf("newest generation %d (recovered=%v, err=%v), want %d", snap.Gen, recovered, err, gen)
		}
		defer back.Close()
		if back.Build() != want.Build() {
			t.Fatalf("generation %d has build %x, want %x", gen, back.Build(), want.Build())
		}
		for _, q := range []int{0, 7, 39} {
			got, err := back.QueryOne(q)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := want.QueryOne(q)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("generation %d: s(%d, %d) = %v, want %v", gen, q, i, got[i], ref[i])
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := runIndex(&buf, src, dir, "", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "published:     "+filepath.Join(dir, core.SnapshotName(3))) {
		t.Fatalf("no publish reported:\n%s", buf.String())
	}
	newest(3, ix)

	// Rolling back: generation 1 published again, as generation 4; the
	// directory keeps its newest three.
	if err := runIndex(&buf, filepath.Join(dir, core.SnapshotName(1)), dir, "", nil); err != nil {
		t.Fatal(err)
	}
	newest(4, other)
	if names, _ := filepath.Glob(filepath.Join(dir, "index-*.csrx")); len(names) != core.KeepSnapshots {
		t.Fatalf("%d generations after the rollback, want %d", len(names), core.KeepSnapshots)
	}

	for _, fresh := range []string{t.TempDir(), filepath.Join(t.TempDir(), "new", "snaps")} {
		dir = fresh
		if err := runIndex(&buf, src, dir, "", nil); err != nil {
			t.Fatal(err)
		}
		newest(1, ix)
	}

	before, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := runIndex(&buf, src, src, "", nil); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("-convert naming a regular file: err = %v, want a refusal saying it is not a directory", err)
	}
	if after, err := os.ReadFile(src); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a refused -convert changed %s: %v", src, err)
	}
}

// TestRunIndexSplit: -convert DIR -split K publishes what a cluster of K
// workers boots from — three wire.BootWorkers over the output, behind a
// router, answer top-k and scores with the whole index's bits — and a
// -split that cannot be honoured is refused by name.
func TestRunIndexSplit(t *testing.T) {
	ix := buildTestIndex(t)
	_, src, err := core.WriteSnapshot(t.TempDir(), ix)
	if err != nil {
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
		wantS, err := whole.Scores(ctx, queries, targets)
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := cluster.Scores(ctx, queries, targets)
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

// TestModeTable: a flag set outside its mode's row is refused, naming
// itself and the mode it applies to, instead of silently ignored — the
// rows csrstat's hand-written refusals used to be among them — and every
// mode accepts its whole row. The table and the flag set describe each
// other exactly.
func TestModeTable(t *testing.T) {
	runArgs := func(fs *flag.FlagSet, args ...string) error {
		fs.SetOutput(io.Discard)
		return run(io.Discard, fs, args)
	}
	for _, tc := range []struct {
		args       []string
		flag, mode string
	}{
		{[]string{"-index", "F", "-n", "5"}, "-n", "without -index or -wal"},
		{[]string{"-index", "F", "-hubs", "3"}, "-hubs", "without -index or -wal"},
		{[]string{"-index", "F", "-dscale", "4"}, "-dscale", "without -index or -wal"},
		{[]string{"-index", "F", "-dataset", "WT"}, "-dataset", "without -index or -wal"},
		{[]string{"-index", "F", "-graph", "g.txt"}, "-graph", "without -index or -wal"},
		{[]string{"-wal", "D", "-dataset", "WT"}, "-dataset", "without -index or -wal"},
		{[]string{"-wal", "D", "-graph", "nope"}, "-graph", "without -index or -wal"},
		{[]string{"-wal", "D", "-index", "F"}, "-index", "with -index"},
		{[]string{"-wal", "D", "-convert", "snaps"}, "-convert", "with -index"},
		{[]string{"-dataset", "WT", "-convert", "snaps"}, "-convert", "with -index"},
		{[]string{"-dataset", "WT", "-quantize", "int8"}, "-quantize", "with -index"},
		{[]string{"-split", "3"}, "-split", "with -index"},
		{[]string{"-dataset", "WT", "-wal", "D"}, "-dataset", "without -index or -wal"},
	} {
		err := runArgs(flag.NewFlagSet("csrstat", flag.ContinueOnError), tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" is not supported") || !strings.Contains(err.Error(), "it applies "+tc.mode) {
			t.Errorf("%v: err = %v, want a refusal naming %s and the mode %q", tc.args, err, tc.flag, tc.mode)
		}
	}
	// Each row whole gets past the table, to what the mode then reads:
	// the graph flags' own check, a missing index file, an empty log.
	dir := t.TempDir()
	for args, want := range map[string]string{
		"-dataset WT -dscale 4 -graph g.txt -n 5 -hubs 3":             "either -dataset or -graph",
		"-index " + dir + "/F -convert snaps -quantize int8 -split 3": "no such file",
		"-wal " + dir: "",
	} {
		err := runArgs(flag.NewFlagSet("csrstat", flag.ContinueOnError), strings.Fields(args)...)
		if (want == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", args, err, want)
		}
	}

	fs := flag.NewFlagSet("csrstat", flag.ContinueOnError)
	if err := runArgs(fs); err == nil {
		t.Fatal("a command line naming nothing to inspect succeeded")
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !slices.ContainsFunc(modes, func(m flagmode.Mode) bool { return m.Reads(f.Name) }) {
			t.Errorf("flag -%s is read by no mode", f.Name)
		}
	})
	for _, m := range modes {
		for _, name := range strings.Fields(m.Flags) {
			if fs.Lookup(name) == nil {
				t.Errorf("mode table names -%s, which is not a flag", name)
			}
		}
	}
}
