package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"csrplus/internal/fault"
	"csrplus/internal/graph"
)

func TestSnapshotNameRoundTrip(t *testing.T) {
	for _, gen := range []uint64{1, 7, 99999999, 1 << 40} {
		name := SnapshotName(gen)
		got, ok := ParseSnapshotName(name)
		if !ok || got != gen {
			t.Fatalf("ParseSnapshotName(%q) = %d, %v", name, got, ok)
		}
	}
	for _, bad := range []string{
		"CURRENT", "index-.csrx", "index-12.bin", "idx-12.csrx",
		"index-12.csrx.tmp", ".current-123", "index--1.csrx", "index-1x.csrx",
	} {
		if _, ok := ParseSnapshotName(bad); ok {
			t.Fatalf("ParseSnapshotName(%q) accepted", bad)
		}
	}
}

func TestWriteSnapshotLifecycle(t *testing.T) {
	ix := buildIndex(t)
	dir := filepath.Join(t.TempDir(), "snaps") // exercise MkdirAll

	gen1, path1, err := WriteSnapshot(dir, ix)
	if err != nil {
		t.Fatal(err)
	}
	if gen1 != 1 || filepath.Base(path1) != SnapshotName(1) {
		t.Fatalf("first snapshot gen=%d path=%s", gen1, path1)
	}
	p, g, err := CurrentSnapshot(dir)
	if err != nil || g != 1 || p != path1 {
		t.Fatalf("CurrentSnapshot = %s, %d, %v", p, g, err)
	}
	if _, err := LoadIndex(p); err != nil {
		t.Fatalf("published snapshot unreadable: %v", err)
	}

	gen2, path2, err := WriteSnapshot(dir, ix)
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != 2 {
		t.Fatalf("second snapshot gen=%d", gen2)
	}
	if p, g, _ := CurrentSnapshot(dir); g != 2 || p != path2 {
		t.Fatalf("newest not advanced: %s, %d", p, g)
	}
	// The first generation is still on disk and loadable (rollback path).
	if _, err := LoadIndex(path1); err != nil {
		t.Fatalf("old generation gone: %v", err)
	}
	snaps, err := listGenerations(dir)
	if err != nil || len(snaps) != 2 || snaps[0].Gen != 1 || snaps[1].Gen != 2 {
		t.Fatalf("listGenerations = %v, %v", snaps, err)
	}
}

// TestRollbackPublishesOldGenerationAsNewest: a rollback publishes an
// older generation's file again, as the newest, and that is what resolves
// and recovers — answering as the old build, under its build id.
func TestRollbackPublishesOldGenerationAsNewest(t *testing.T) {
	old, newer := buildIndex(t), bigIndex(t, 40, 4)
	dir := t.TempDir()
	_, first, err := WriteSnapshot(dir, old)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteSnapshot(dir, newer); err != nil {
		t.Fatal(err)
	}
	back, err := LoadIndex(first)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if gen, _, err := WriteSnapshot(dir, back); err != nil || gen != 3 {
		t.Fatalf("republishing generation 1: gen %d, %v; want 3", gen, err)
	}
	served, snap, recovered, err := RecoverSnapshot(dir)
	if err != nil || recovered || snap.Gen != 3 {
		t.Fatalf("after the rollback: gen %d recovered=%v err=%v, want generation 3", snap.Gen, recovered, err)
	}
	defer served.Close()
	if served.Build() != old.Build() {
		t.Fatalf("generation 3 has build %x, want the rolled-back build %x", served.Build(), old.Build())
	}
	queries := []int{0, 3, old.N() - 1}
	wantBitwise(t, "rolled back", queryBits(t, served, queries), queryBits(t, old, queries))
}

// TestCurrentSnapshotFallbacks: the highest generation resolves, whatever
// order the files arrived in and whatever CURRENT file an older binary
// left behind, and an empty directory is ErrNoSnapshot.
func TestCurrentSnapshotFallbacks(t *testing.T) {
	ix := buildIndex(t)
	dir := t.TempDir()
	// Empty directory: ErrNoSnapshot.
	if _, _, err := CurrentSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	// Bare snapshot files (a hand-provisioned directory): the highest
	// generation wins.
	src := writeSnapFile(t, ix)
	for _, gen := range []uint64{3, 1, 2} {
		if err := os.Link(src, filepath.Join(dir, SnapshotName(gen))); err != nil {
			t.Fatal(err)
		}
	}
	p, g, err := CurrentSnapshot(dir)
	if err != nil || g != 3 || filepath.Base(p) != SnapshotName(3) {
		t.Fatalf("fallback = %s, %d, %v", p, g, err)
	}
	// A pointer file naming an older generation does not move it.
	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte(SnapshotName(1)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if p, g, err := CurrentSnapshot(dir); err != nil || g != 3 || filepath.Base(p) != SnapshotName(3) {
		t.Fatalf("with a CURRENT naming generation 1 = %s, %d, %v; want generation 3", p, g, err)
	}
}

func TestPruneSnapshots(t *testing.T) {
	ix := buildIndex(t)
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		if _, _, err := WriteSnapshot(dir, ix); err != nil {
			t.Fatal(err)
		}
	}
	// Prune to the 2 newest: generations 4 and 5 survive.
	removed, err := PruneSnapshots(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}
	snaps, _ := listGenerations(dir)
	var gens []uint64
	for _, s := range snaps {
		gens = append(gens, s.Gen)
	}
	if len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
		t.Fatalf("surviving generations %v, want [4 5]", gens)
	}
	if _, g, err := CurrentSnapshot(dir); err != nil || g != 5 {
		t.Fatalf("newest broken after prune: %d, %v", g, err)
	}
	// Pruning below 1 keeps at least the newest.
	if _, err := PruneSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if snaps, _ = listGenerations(dir); len(snaps) != 1 || snaps[0].Gen != 5 {
		t.Fatalf("prune to 0 left %v, want generation 5 alone", snaps)
	}
}

// TestPruneUnderMappedGeneration is why the server may prune while it
// serves: a generation that is still memory-mapped keeps answering,
// bitwise, after prune has unlinked its file.
func TestPruneUnderMappedGeneration(t *testing.T) {
	ix := buildIndex(t)
	dir := t.TempDir()
	_, first, err := WriteSnapshot(dir, ix)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := MapIndex(first)
	if err != nil {
		if errors.Is(err, errMapUnsupported) {
			t.Skipf("mmap unavailable here: %v", err)
		}
		t.Fatal(err)
	}
	defer mapped.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := WriteSnapshot(dir, ix); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := PruneSnapshots(dir, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Fatalf("generation 1 survived the prune: %v", err)
	}
	queries := []int{0, 3, ix.N() - 1}
	wantBitwise(t, "mapped after unlink", queryBits(t, mapped, queries), queryBits(t, ix, queries))
}

// TestSaveIndexLeavesNoTempDebris verifies the crash-safety
// scaffolding cleans up after itself on the success path: one publish
// leaves exactly its generation's name. The name predates the one
// index writer.
func TestSaveIndexLeavesNoTempDebris(t *testing.T) {
	ix := buildIndex(t)
	dir := t.TempDir()
	if _, _, err := WriteSnapshot(dir, ix); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != SnapshotName(1) {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory contents %v, want [%s]", names, SnapshotName(1))
	}
}

// TestPublishVerifiesBeforeCurrent: a publish whose file does not read back
// — cut short, a flipped factor byte, and under -tags faultinject a torn
// write, a failed read and a failed verify at the sites a real disk fails at
// — or that cannot be placed under its name returns an error with the
// previous generation still the newest, no new name and no temp left; the
// next clean publish takes the generation over and hands back the file it
// wrote, mapped where mapping works (a refused mmap degrades to the heap
// decode and still publishes).
func TestPublishVerifiesBeforeCurrent(t *testing.T) {
	ix := buildIndex(t)
	dir := t.TempDir()
	_, first, err := WriteSnapshot(dir, ix)
	if err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, SnapshotName(2))
	refused := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("publish succeeded")
		}
		if p, g, cerr := CurrentSnapshot(dir); cerr != nil || g != 1 || p != first {
			t.Fatalf("after %v: newest = %s, %d, %v; want generation 1", err, p, g, cerr)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("after %v: directory holds %d entries, want generation 1 alone", err, len(entries))
		}
		if _, snap, recovered, rerr := RecoverSnapshot(dir); rerr != nil || recovered || snap.Gen != 1 {
			t.Fatalf("after %v: recovery serves generation %d (recovered=%v, err=%v)", err, snap.Gen, recovered, rerr)
		}
	}
	// damaged writes ix whole, then damaged: what a disk that lies about a
	// write leaves behind.
	damaged := func(damage func(data []byte) []byte) func(w io.Writer) (int64, error) {
		return func(w io.Writer) (int64, error) {
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				return 0, err
			}
			n, err := w.Write(damage(buf.Bytes()))
			return int64(n), err
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(data []byte) []byte
	}{
		{"cut short", func(data []byte) []byte { return data[:len(data)-pageSize] }},
		{"factor byte flipped", func(data []byte) []byte { data[len(data)-pageSize-3] ^= 0x40; return data }},
		{"header byte flipped", func(data []byte) []byte { data[20] ^= 1; return data }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := publishSnapshot(dir, indexKind, damaged(tc.damage))
			refused(t, err)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}

	fault.Enable(7)
	defer fault.Disable()
	if fault.Enabled() {
		for _, tc := range []struct {
			site string
			plan fault.Plan
		}{
			{fault.SiteIndexWrite, fault.Plan{TornProb: 1, TornBytes: 100}},
			{fault.SiteIndexRead, fault.Plan{ErrProb: 1}},
			{fault.SiteIndexVerify, fault.Plan{ErrProb: 1}},
			{fault.SiteSnapshotLink, fault.Plan{ErrProb: 1}},
		} {
			t.Run(tc.site, func(t *testing.T) {
				fault.Arm(tc.site, tc.plan)
				_, _, _, err := PublishSnapshot(dir, ix)
				fired := fault.Injected(tc.site)
				fault.Disarm(tc.site) // the checks below read the directory
				refused(t, err)
				if fired == 0 {
					t.Fatal("the site never fired; the test asserted nothing")
				}
			})
		}
		t.Run(fault.SiteIndexMap, func(t *testing.T) {
			fault.Arm(fault.SiteIndexMap, fault.Plan{ErrProb: 1})
			defer fault.Disarm(fault.SiteIndexMap)
			sub := t.TempDir()
			back, snap, _, err := PublishSnapshot(sub, ix)
			if err != nil || back.Mapped() || snap.Gen != 1 {
				t.Fatalf("publish with mmap refused: gen %d mapped=%v err=%v, want a decoded generation 1", snap.Gen, back != nil && back.Mapped(), err)
			}
		})
	}

	back, snap, _, err := PublishSnapshot(dir, ix)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if p, g, cerr := CurrentSnapshot(dir); cerr != nil || g != 2 || p != second || snap != (Snapshot{Gen: 2, Path: second}) {
		t.Fatalf("clean publish: newest = %s, %d, %v and snap = %+v; want generation 2", p, g, cerr, snap)
	}
	if want := mmapSupported && nativeLE; back.Mapped() != want {
		t.Fatalf("published generation Mapped() = %v, want %v", back.Mapped(), want)
	}
	queries := []int{0, 3, ix.N() - 1}
	wantBitwise(t, "the generation as published", queryBits(t, back, queries), queryBits(t, ix, queries))
}

// TestStaleGenerationsAreSkipped holds the stale rule: a generation in a
// format this build does not serve is neither resolved nor recovered, and
// skipping it is not a recovery — a newer stale generation leaves the
// newest servable one serving with recovered unset, and the error when none
// is left names the format — while publishing still numbers past it and
// pruning still counts it.
func TestStaleGenerationsAreSkipped(t *testing.T) {
	dir := t.TempDir()
	ix := buildIndex(t)
	if _, _, err := WriteSnapshot(dir, ix); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotName(2)), golden(t, goldenIndexV3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, g, err := CurrentSnapshot(dir); err != nil || g != 1 {
		t.Fatalf("CurrentSnapshot past a stale generation 2 = %d, %v; want generation 1", g, err)
	}
	back, snap, recovered, err := RecoverSnapshot(dir)
	if err != nil || snap.Gen != 1 || recovered || snap.Skipped != nil {
		t.Fatalf("RecoverSnapshot = gen %d recovered %v (skipped %v), %v; want generation 1, not recovered", snap.Gen, recovered, snap.Skipped, err)
	}
	back.Close()
	if gen, _, err := WriteSnapshot(dir, ix); err != nil || gen != 3 {
		t.Fatalf("publish over a stale generation: gen %d, %v; want 3", gen, err)
	}
	if removed, err := PruneSnapshots(dir, 1); err != nil || removed != 2 {
		t.Fatalf("PruneSnapshots(1) removed %d (%v), want the servable and the stale older generation", removed, err)
	}

	only := t.TempDir()
	if err := os.WriteFile(filepath.Join(only, SnapshotName(4)), golden(t, goldenIndexV3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CurrentSnapshot(only); !errors.Is(err, ErrNoSnapshot) || !errors.Is(err, ErrFormat) {
		t.Errorf("CurrentSnapshot over stale generations only: err = %v, want ErrNoSnapshot and ErrFormat", err)
	}
	if _, _, _, err := RecoverSnapshot(only); !errors.Is(err, ErrNoSnapshot) || !errors.Is(err, ErrFormat) {
		t.Errorf("RecoverSnapshot over stale generations only: err = %v, want ErrNoSnapshot naming the format", err)
	}
}

// TestConcurrentPublishesTakeDistinctGenerations: a generation number names
// one file, forever. Two publishers racing into one directory get two
// generations, and each file loads as the build its publisher wrote — for
// whole indexes and for shard slices alike.
func TestConcurrentPublishesTakeDistinctGenerations(t *testing.T) {
	var ixs [2]*Index
	for i := range ixs {
		g, err := graph.ErdosRenyi(120, 700, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if ixs[i], err = Precompute(g, Options{Rank: 6}); err != nil {
			t.Fatal(err)
		}
	}
	if ixs[0].Build() == ixs[1].Build() {
		t.Fatal("the two fixtures share a build id; the test could not tell their files apart")
	}
	kinds := map[string]struct {
		publish func(dir string, ix *Index) (uint64, string, error)
		build   func(path string) (uint64, error)
	}{
		"index": {
			WriteSnapshot,
			func(path string) (uint64, error) {
				ix, err := LoadIndex(path)
				if err != nil {
					return 0, err
				}
				defer ix.Close()
				return ix.Build(), nil
			},
		},
		"shard": {
			func(dir string, ix *Index) (uint64, string, error) {
				return WriteShardSnapshot(dir, &ix.IndexShard)
			},
			func(path string) (uint64, error) {
				f, err := LoadShard(path)
				if err != nil {
					return 0, err
				}
				defer f.Close()
				return f.Build(), nil
			},
		},
	}
	for name, k := range kinds {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 40; round++ {
				dir := t.TempDir()
				var gens [2]uint64
				var paths [2]string
				var errs [2]error
				var wg sync.WaitGroup
				for i := range ixs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						gens[i], paths[i], errs[i] = k.publish(dir, ixs[i])
					}()
				}
				wg.Wait()
				if errs[0] != nil || errs[1] != nil {
					t.Fatalf("round %d: publish errors %v, %v", round, errs[0], errs[1])
				}
				if gens[0] == gens[1] {
					t.Fatalf("round %d: both publishes took generation %d", round, gens[0])
				}
				for i := range ixs {
					if build, err := k.build(paths[i]); err != nil || build != ixs[i].Build() {
						t.Fatalf("round %d: generation %d holds build %x (%v), want its publisher's %x", round, gens[i], build, err, ixs[i].Build())
					}
				}
			}
		})
	}
}
