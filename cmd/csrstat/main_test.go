package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/graph"
	"csrplus/internal/ingest"
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
	if err := runIndex(&buf, path, "", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"nodes:         40", "rank:          4", "tier:          f64"} {
		if !strings.Contains(out, want) {
			t.Fatalf("index output missing %q:\n%s", want, out)
		}
	}
	if err := runIndex(&buf, path, "", "int8"); err == nil {
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
	if err := runIndex(&buf, path, "", ""); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nodes:         40", "shard rows:    [10, 25)", "rank:          4", "tier:          f64"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("shard output missing %q:\n%s", want, buf.String())
		}
	}
	if err := runIndex(&buf, path, filepath.Join(t.TempDir(), "out.csrx"), ""); err == nil {
		t.Fatal("-convert of a shard file accepted")
	}
	// A file that loads as neither kind reports both failures, so a torn
	// shard file names its failing check, not just "not an index".
	if err := os.Truncate(path, 5000); err != nil {
		t.Fatal(err)
	}
	err = runIndex(&buf, path, "", "")
	if !errors.Is(err, core.ErrCorrupt) || !strings.Contains(err.Error(), "as a shard file") {
		t.Fatalf("torn shard file: err = %v, want wrapped ErrCorrupt naming the shard load", err)
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
	if err := runIndex(&buf, src, dst, "int8"); err != nil {
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
	if err := runIndex(&buf, dst, "", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tier:          int8") || !strings.Contains(buf.String(), "quant bound:") {
		t.Fatalf("quantized inspect output wrong:\n%s", buf.String())
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
