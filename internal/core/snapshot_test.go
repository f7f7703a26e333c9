package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"csrplus/internal/fault"
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
		t.Fatalf("CURRENT not advanced: %s, %d", p, g)
	}
	// The first generation is still on disk and loadable (rollback path).
	if _, err := LoadIndex(path1); err != nil {
		t.Fatalf("old generation gone: %v", err)
	}
	snaps, err := ListSnapshots(dir)
	if err != nil || len(snaps) != 2 || snaps[0].Gen != 1 || snaps[1].Gen != 2 {
		t.Fatalf("ListSnapshots = %v, %v", snaps, err)
	}
}

func TestSetCurrentRollback(t *testing.T) {
	ix := buildIndex(t)
	dir := t.TempDir()
	if _, _, err := WriteSnapshot(dir, ix); err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteSnapshot(dir, ix); err != nil {
		t.Fatal(err)
	}
	// Roll back to generation 1 by repointing CURRENT.
	if err := SetCurrent(dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, g, _ := CurrentSnapshot(dir); g != 1 {
		t.Fatalf("rollback did not take: generation %d", g)
	}
	// Pointing at a generation that does not exist must fail before
	// publishing anything.
	if err := SetCurrent(dir, 99); err == nil {
		t.Fatal("SetCurrent accepted a missing generation")
	}
	if _, g, _ := CurrentSnapshot(dir); g != 1 {
		t.Fatal("failed SetCurrent clobbered CURRENT")
	}
}

func TestCurrentSnapshotFallbacks(t *testing.T) {
	ix := buildIndex(t)
	dir := t.TempDir()
	// Empty directory: ErrNoSnapshot.
	if _, _, err := CurrentSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	// Bare snapshot files without CURRENT (hand-provisioned directory):
	// the highest generation wins.
	for _, gen := range []uint64{3, 1, 2} {
		if err := SaveIndex(ix, filepath.Join(dir, SnapshotName(gen))); err != nil {
			t.Fatal(err)
		}
	}
	p, g, err := CurrentSnapshot(dir)
	if err != nil || g != 3 || filepath.Base(p) != SnapshotName(3) {
		t.Fatalf("fallback = %s, %d, %v", p, g, err)
	}
	// A CURRENT naming garbage is an error, not a silent fallback — the
	// operator published something broken and should hear about it.
	if err := os.WriteFile(filepath.Join(dir, CurrentFile), []byte("junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CurrentSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("garbage CURRENT: err = %v, want ErrNoSnapshot", err)
	}
	// A CURRENT naming a missing file is an error too.
	if err := os.WriteFile(filepath.Join(dir, CurrentFile), []byte(SnapshotName(9)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CurrentSnapshot(dir); err == nil {
		t.Fatal("CURRENT naming a missing snapshot resolved")
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
	// Roll CURRENT back to 2, then prune to 2 newest: generations 4 and 5
	// survive by recency, 2 survives because CURRENT points at it.
	if err := SetCurrent(dir, 2); err != nil {
		t.Fatal(err)
	}
	removed, err := PruneSnapshots(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 { // generations 1 and 3
		t.Fatalf("removed %d, want 2", removed)
	}
	snaps, _ := ListSnapshots(dir)
	var gens []uint64
	for _, s := range snaps {
		gens = append(gens, s.Gen)
	}
	if len(gens) != 3 || gens[0] != 2 || gens[1] != 4 || gens[2] != 5 {
		t.Fatalf("surviving generations %v, want [2 4 5]", gens)
	}
	if _, g, err := CurrentSnapshot(dir); err != nil || g != 2 {
		t.Fatalf("CURRENT broken after prune: %d, %v", g, err)
	}
	// Pruning below 1 keeps at least the newest.
	if _, err := PruneSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if snaps, _ = ListSnapshots(dir); len(snaps) == 0 {
		t.Fatal("prune emptied the directory")
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

// TestSaveIndexLeavesNoTempDebris verifies the crash-safety scaffolding
// cleans up after itself on the success path.
func TestSaveIndexLeavesNoTempDebris(t *testing.T) {
	ix := buildIndex(t)
	dir := t.TempDir()
	if err := SaveIndex(ix, filepath.Join(dir, "a.csrx")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "a.csrx" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory contents %v, want [a.csrx]", names)
	}
}

// TestPublishVerifiesBeforeCurrent: a publish whose file does not read back
// — cut short, a flipped factor byte, and under -tags faultinject a torn
// write, a failed read and a failed verify at the sites a real disk fails at
// — returns an error with CURRENT still naming the previous generation and
// the new file gone; the next clean publish takes the generation over and
// hands back the file it wrote, mapped where mapping works (a refused mmap
// degrades to the heap decode and still publishes).
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
			t.Fatalf("after %v: CURRENT = %s, %d, %v; want generation 1", err, p, g, cerr)
		}
		if _, serr := os.Stat(second); !os.IsNotExist(serr) {
			t.Fatalf("after %v: %s still there (stat: %v)", err, second, serr)
		}
		if _, snap, recovered, rerr := RecoverSnapshot(dir); rerr != nil || recovered || snap.Gen != 1 {
			t.Fatalf("after %v: recovery serves generation %d (recovered=%v, err=%v)", err, snap.Gen, recovered, rerr)
		}
	}
	// damaged saves ix to path whole, then damages the file in place: what a
	// disk that lies about a write leaves behind.
	damaged := func(damage func(data []byte) []byte) func(path string) error {
		return func(path string) error {
			if err := SaveIndex(ix, path); err != nil {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, damage(data), 0o644)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(data []byte) []byte
	}{
		{"cut short", func(data []byte) []byte { return data[:len(data)-v2Page] }},
		{"factor byte flipped", func(data []byte) []byte { data[len(data)-v2Page-3] ^= 0x40; return data }},
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
		t.Fatalf("clean publish: CURRENT = %s, %d, %v and snap = %+v; want generation 2", p, g, cerr, snap)
	}
	if want := mmapSupported && nativeLE; back.Mapped() != want {
		t.Fatalf("published generation Mapped() = %v, want %v", back.Mapped(), want)
	}
	queries := []int{0, 3, ix.N() - 1}
	wantBitwise(t, "the generation as published", queryBits(t, back, queries), queryBits(t, ix, queries))
}
