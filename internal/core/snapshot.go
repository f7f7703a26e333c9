package core

// snapshot.go implements the versioned snapshot directory the hot-reload
// lifecycle serves from — the same shape LevelDB-family stores use for
// their manifests:
//
//	index-<gen>.csrx   immutable index files, generation strictly increasing
//	CURRENT            one line naming the live snapshot ("index-<gen>.csrx")
//
// A directory holds generations of one kind: whole indexes, or the slices
// of one shard (<root>/shard-<s>, see ShardDir); the lifecycle below is
// written once and takes the kind as an argument.
//
// Writers append: WriteSnapshot persists a new generation next to the old
// ones (crash-consistently, via SaveIndex), reads it back, and then
// atomically repoints CURRENT. Readers resolve CURRENT to a path and load it. Because
// published files are never mutated and both the file write and the
// pointer flip are atomic, a reader racing a writer sees either the old
// generation or the new one — never a torn index — and a crash mid-publish
// leaves CURRENT pointing at the previous, intact generation.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"csrplus/internal/fault"
)

// CurrentFile is the pointer file naming the live snapshot in a
// snapshot directory.
const CurrentFile = "CURRENT"

const (
	snapshotPrefix = "index-"
	snapshotSuffix = ".csrx"
)

// Temp-file prefixes used by the atomic writers. The sweeper keys on
// them, so they are named constants rather than string literals at the
// CreateTemp call sites.
const (
	tempSavePrefix    = ".csrx-"    // saveAtomic payload temps
	tempCurrentPrefix = ".current-" // SetCurrent pointer temps
)

// staleTempAge is how old an orphaned temp file must be before
// sweepStaleTemps deletes it. The atomic writers hold their temps for
// milliseconds, so anything minutes old is a crash leftover, not an
// in-flight write racing the sweep. Var, not const, so tests can sweep
// without waiting.
var staleTempAge = 10 * time.Minute

// sweepStaleTemps deletes crash-orphaned temp files (saveAtomic's
// .csrx-* payload temps, SetCurrent's .current-* pointer temps) older
// than staleTempAge. A crash between CreateTemp and the deferred remove
// strands the temp forever; on a snapshot directory rewritten every
// publish the strays accumulate until the disk fills. The sweep runs
// from the housekeeping path (PruneSnapshots) and the crash-recovery
// path (recoverSnapshot) — the places that execute exactly when
// leftovers can exist. Best-effort by design:
// errors are swallowed so the sweep can never turn a successful
// recovery into a failure over an unlinkable stray.
func sweepStaleTemps(dir string) (removed int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() ||
			(!strings.HasPrefix(name, tempSavePrefix) && !strings.HasPrefix(name, tempCurrentPrefix)) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// ErrNoSnapshot is returned (wrapped) when a snapshot directory contains
// no resolvable snapshot.
var ErrNoSnapshot = errors.New("core: no snapshot in directory")

// SnapshotName renders the canonical file name of generation gen.
// Generations are zero-padded so lexical and numeric order agree in
// directory listings.
func SnapshotName(gen uint64) string {
	return fmt.Sprintf("%s%08d%s", snapshotPrefix, gen, snapshotSuffix)
}

// ParseSnapshotName extracts the generation from an index-<gen>.csrx
// name. It reports false for anything else (including CURRENT, temp
// files, and foreign files an operator dropped in the directory).
func ParseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
		return 0, false
	}
	digits := name[len(snapshotPrefix) : len(name)-len(snapshotSuffix)]
	if digits == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// Snapshot is one versioned index file in a snapshot directory.
type Snapshot struct {
	Gen  uint64
	Path string
}

// ListSnapshots returns every snapshot in dir in ascending generation
// order, ignoring files that do not follow the naming convention.
func ListSnapshots(dir string) ([]Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: ListSnapshots: %w", err)
	}
	var snaps []Snapshot
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, ok := ParseSnapshotName(e.Name()); ok {
			snaps = append(snaps, Snapshot{Gen: gen, Path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Gen < snaps[j].Gen })
	return snaps, nil
}

// ShardDir returns the conventional snapshot directory of shard s under
// root: <root>/shard-<s>. Each shard gets its own snapshot directory so
// generations advance (and roll back) independently per shard — the unit
// of a rolling reload.
func ShardDir(root string, s int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%d", s))
}

// WriteSnapshot persists ix as the next generation in dir (max existing
// generation + 1) and repoints CURRENT at it. Both steps are atomic and
// fsynced, so a crash anywhere leaves the directory serving its previous
// generation. The directory is created if missing.
func WriteSnapshot(dir string, ix *Index) (gen uint64, path string, err error) {
	back, snap, _, err := PublishSnapshot(dir, ix)
	if err != nil {
		return 0, "", err
	}
	_ = back.Close() // a view nobody has queried
	return snap.Gen, snap.Path, nil
}

// PublishSnapshot is WriteSnapshot for a publisher that goes on to serve
// what it published: it also returns the generation as opened from its file
// — the mapping a boot from dir would serve, a heap decode where mapping is
// unavailable — so the caller can drop ix and rest at the file, and what
// that open cost out of the publish. The caller owns Close on the returned
// index.
func PublishSnapshot(dir string, ix *Index) (served *Index, snap Snapshot, readBack time.Duration, err error) {
	return publishSnapshot(dir, indexKind, func(path string) error { return SaveIndex(ix, path) })
}

// WriteShardSnapshot is WriteSnapshot for a shard directory.
func WriteShardSnapshot(dir string, sh *IndexShard) (gen uint64, path string, err error) {
	back, snap, _, err := publishSnapshot(dir, shardKind, func(path string) error { return SaveShard(sh, path) })
	if err != nil {
		return 0, "", err
	}
	_ = back.Close() // a view nobody has queried
	return snap.Gen, snap.Path, nil
}

// publishSnapshot is the one publish: reserve the next generation's path,
// save to it, open it the way a boot would — every CRC checked — and only
// then flip CURRENT, so CURRENT never names a file this process could not
// read back. A file that fails the read-back is removed and CURRENT keeps
// naming the previous generation.
func publishSnapshot(dir string, k *snapKind, save func(path string) error) (back *Index, snap Snapshot, readBack time.Duration, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Snapshot{}, 0, fmt.Errorf("core: WriteSnapshot: %w", err)
	}
	snaps, err := ListSnapshots(dir)
	if err != nil {
		return nil, Snapshot{}, 0, err
	}
	snap.Gen = 1
	if len(snaps) > 0 {
		snap.Gen = snaps[len(snaps)-1].Gen + 1
	}
	snap.Path = filepath.Join(dir, SnapshotName(snap.Gen))
	if err := save(snap.Path); err != nil {
		return nil, Snapshot{}, 0, err
	}
	start := time.Now()
	if back, err = loadSnapshot(snap.Path, k); err != nil {
		_ = os.Remove(snap.Path) // best effort: nothing names it
		return nil, Snapshot{}, 0, fmt.Errorf("core: WriteSnapshot: reading back generation %d: %w", snap.Gen, err)
	}
	readBack = time.Since(start)
	if err := SetCurrent(dir, snap.Gen); err != nil {
		_ = back.Close()
		return nil, Snapshot{}, 0, err
	}
	return back, snap, readBack, nil
}

// SetCurrent atomically repoints CURRENT at generation gen, which must
// already exist in dir — pointing at a missing file would publish a
// snapshot no reader can load.
func SetCurrent(dir string, gen uint64) error {
	name := SnapshotName(gen)
	if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("core: SetCurrent(%d): %w", gen, err)
	}
	tmp, err := os.CreateTemp(dir, tempCurrentPrefix+"*")
	if err != nil {
		return fmt.Errorf("core: SetCurrent: %w", err)
	}
	defer os.Remove(tmp.Name())
	// Chaos builds can tear or fail the pointer write; because the tear
	// lands in the temp file before the rename, old CURRENT stays intact —
	// the same guarantee a real crash gets.
	if _, err := io.WriteString(fault.Writer(fault.SiteCurrentWrite, tmp), name+"\n"); err != nil {
		tmp.Close()
		return fmt.Errorf("core: SetCurrent: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: SetCurrent: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: SetCurrent: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, CurrentFile)); err != nil {
		return fmt.Errorf("core: SetCurrent: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("core: SetCurrent: %w", err)
	}
	return nil
}

// CurrentSnapshot resolves the snapshot a reload should serve: the one
// CURRENT names, or — when no CURRENT exists (an operator rsync'd bare
// index files into a fresh directory) — the highest generation present.
// It returns ErrNoSnapshot (wrapped) when neither resolves.
func CurrentSnapshot(dir string) (path string, gen uint64, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, CurrentFile))
	switch {
	case err == nil:
		name := strings.TrimSpace(string(raw))
		g, ok := ParseSnapshotName(name)
		if !ok || name != filepath.Base(name) {
			return "", 0, fmt.Errorf("core: CURRENT names %q, not a snapshot: %w", name, ErrNoSnapshot)
		}
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err != nil {
			return "", 0, fmt.Errorf("core: CURRENT names missing snapshot %s: %w", name, err)
		}
		return p, g, nil
	case errors.Is(err, os.ErrNotExist):
		snaps, lerr := ListSnapshots(dir)
		if lerr != nil {
			return "", 0, lerr
		}
		if len(snaps) == 0 {
			return "", 0, fmt.Errorf("core: %s: %w", dir, ErrNoSnapshot)
		}
		latest := snaps[len(snaps)-1]
		return latest.Path, latest.Gen, nil
	default:
		return "", 0, fmt.Errorf("core: CurrentSnapshot: %w", err)
	}
}

// RecoverSnapshot loads the best snapshot a directory can still serve,
// surviving the crash/corruption states CurrentSnapshot alone cannot: a
// CURRENT pointing at a missing or truncated index file (a torn publish, a
// partial rsync), a torn CURRENT naming garbage, or a corrupt newest
// generation. It tries CURRENT's target first; when that is absent or
// fails to load, it walks the remaining generations newest-first and
// returns the first one that deserialises cleanly (CRC and shape checks
// included). recovered reports that the returned snapshot is NOT the one
// CURRENT names — the operator's cue to investigate and re-publish. When
// nothing loads, the error wraps ErrNoSnapshot and names the last
// failure so "empty directory" and "every generation corrupt" read
// differently in logs.
func RecoverSnapshot(dir string) (ix *Index, snap Snapshot, recovered bool, err error) {
	return recoverSnapshot(dir, indexKind)
}

// RecoverShardSnapshot is RecoverSnapshot for a shard directory. The caller
// owns Close on the returned file.
func RecoverShardSnapshot(dir string) (f *ShardFile, snap Snapshot, recovered bool, err error) {
	ix, snap, recovered, err := recoverSnapshot(dir, shardKind)
	f, err = shardFileOf(ix, err)
	return f, snap, recovered, err
}

// recoverSnapshot is the one fallback ladder, over files of kind k.
func recoverSnapshot(dir string, k *snapKind) (ix *Index, snap Snapshot, recovered bool, err error) {
	sweepStaleTemps(dir)
	var loadErr error // most recent load failure, for the final error
	skip := ""
	if p, g, cerr := CurrentSnapshot(dir); cerr == nil {
		ix, loadErr = loadSnapshot(p, k)
		if loadErr == nil {
			return ix, Snapshot{Gen: g, Path: p}, false, nil
		}
		skip = p
	} else if !errors.Is(cerr, os.ErrNotExist) && !errors.Is(cerr, ErrNoSnapshot) {
		// CURRENT exists but is unreadable or names garbage (torn write):
		// remember why, then fall back to the generation scan.
		loadErr = cerr
	}
	snaps, lerr := ListSnapshots(dir)
	if lerr != nil {
		return nil, Snapshot{}, false, lerr
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		s := snaps[i]
		if s.Path == skip {
			continue
		}
		ix, err := loadSnapshot(s.Path, k)
		if err != nil {
			loadErr = err
			continue
		}
		return ix, s, true, nil
	}
	if loadErr != nil {
		return nil, Snapshot{}, false, fmt.Errorf("core: %s: no loadable %s snapshot (last failure: %v): %w", dir, k.name, loadErr, ErrNoSnapshot)
	}
	return nil, Snapshot{}, false, fmt.Errorf("core: %s: %w", dir, ErrNoSnapshot)
}

// KeepSnapshots is how many generations a publisher leaves in a snapshot
// directory: the one CURRENT names plus two older ones — what the recovery
// ladder falls back to when the newest is torn, and what an operator can
// roll back to. Everything published (boot priming, drift rebuilds,
// per-shard slices) would otherwise accumulate until the disk fills.
const KeepSnapshots = 3

// PruneSnapshots deletes all but the newest keep generations from dir,
// never deleting the one CURRENT points at, and sweeps crash-orphaned
// temp files as a side effect. It returns how many snapshot files were
// removed (swept temps are not counted). keep < 1 is treated as 1: a
// snapshot directory must not be pruned to nothing.
func PruneSnapshots(dir string, keep int) (removed int, err error) {
	if keep < 1 {
		keep = 1
	}
	sweepStaleTemps(dir)
	snaps, err := ListSnapshots(dir)
	if err != nil {
		return 0, err
	}
	var curGen uint64
	if _, gen, err := CurrentSnapshot(dir); err == nil {
		curGen = gen
	}
	if len(snaps) <= keep {
		return 0, nil
	}
	for _, s := range snaps[:len(snaps)-keep] {
		if s.Gen == curGen {
			continue
		}
		if err := os.Remove(s.Path); err != nil {
			return removed, fmt.Errorf("core: PruneSnapshots: %w", err)
		}
		removed++
	}
	return removed, nil
}
