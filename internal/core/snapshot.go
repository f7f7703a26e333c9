package core

// snapshot.go implements the versioned snapshot directory the hot-reload
// lifecycle serves from:
//
//	index-<gen>.csrx   immutable index files, generation strictly increasing
//
// The listing is the only state: a boot, a reload or a worker serves the
// newest generation that loads. A directory holds generations of one kind:
// whole indexes, or the slices of one shard (<root>/shard-<s>, see
// ShardDir); the lifecycle below is written once and takes the kind as an
// argument.
//
// Writers append: a publish writes a temp file, reads it back the way a
// boot would (every CRC checked), and only then links it in under the next
// free generation name, never over an existing file. Published files are
// never mutated and a name appears only for a complete, verified file, so a
// reader racing a writer sees either the old newest generation or the new
// one — never a torn index — and a crash mid-publish leaves at most a temp
// file, which housekeeping sweeps. A newest generation damaged after it was
// published (bit rot, a partial rsync) fails its load, and recovery serves
// the next one down and says so.
//
// A generation written in a format this build does not serve (v1–v4,
// ErrFormat) is stale, not corrupt: resolution and recovery skip it as if
// it were absent, so a directory of stale generations reads as empty and a
// server that can rebuild publishes the next generation over it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"csrplus/internal/fault"
)

const (
	snapshotPrefix = "index-"
	snapshotSuffix = ".csrx"
)

// tempSavePrefix names the temps the atomic writers write through. The
// sweeper keys on it, so it is a named constant rather than a string
// literal at the CreateTemp call site.
const tempSavePrefix = ".csrx-"

// staleTempAge is how old an orphaned temp file must be before
// sweepStaleTemps deletes it. The atomic writers hold their temps for
// milliseconds, so anything minutes old is a crash leftover, not an
// in-flight write racing the sweep. Var, not const, so tests can sweep
// without waiting.
var staleTempAge = 10 * time.Minute

// sweepStaleTemps deletes crash-orphaned .csrx-* temp files older than
// staleTempAge. A crash between CreateTemp and the deferred remove
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
		if e.IsDir() || !strings.HasPrefix(name, tempSavePrefix) {
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
// name. It reports false for anything else (temp files, and foreign files
// an operator or an older binary left in the directory).
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
	// Skipped is, for a snapshot recovery fell back to, why the newest
	// generation in the format this build serves did not load; nil
	// otherwise.
	Skipped error
}

// staleFormat returns the ErrFormat-wrapped reason the snapshot at path is
// in a format this build does not serve, naming it, or nil: for a current
// file, and for one it cannot read that far (the loader says why).
func staleFormat(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil
	}
	k := indexKind
	if binary.LittleEndian.Uint32(head[:]) == binary.LittleEndian.Uint32(shardKind.magic[:]) {
		k = shardKind
	}
	if err := checkHead(head[:], k); errors.Is(err, ErrFormat) {
		return err
	}
	return nil
}

// listGenerations returns every index-<gen>.csrx file in dir, stale or
// not, in ascending generation order.
func listGenerations(dir string) ([]Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: listing snapshots: %w", err)
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
// generation + 1, or the next free one past it when another publisher
// takes that first). The file is fsynced and read back before its name
// appears, so a crash anywhere leaves the directory serving its previous
// newest generation. The directory is created if missing.
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
	return publishSnapshot(dir, indexKind, ix.WriteTo)
}

// WriteShardSnapshot is WriteSnapshot for a shard directory.
func WriteShardSnapshot(dir string, sh *IndexShard) (gen uint64, path string, err error) {
	back, snap, _, err := publishSnapshot(dir, shardKind, sh.WriteTo)
	if err != nil {
		return 0, "", err
	}
	_ = back.Close() // a view nobody has queried
	return snap.Gen, snap.Path, nil
}

// publishSnapshot is the one publish: write a durable temp file, open it
// the way a boot would — every CRC checked — and only then link it in
// under its generation name (placeSnapshot). A file that fails the
// read-back never gets a name. Two fsyncs: the payload and the directory.
func publishSnapshot(dir string, k *snapKind, writeTo func(io.Writer) (int64, error)) (back *Index, snap Snapshot, readBack time.Duration, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Snapshot{}, 0, fmt.Errorf("core: WriteSnapshot: %w", err)
	}
	tmp, err := writeTemp(dir, writeTo)
	if err != nil {
		return nil, Snapshot{}, 0, err
	}
	start := time.Now()
	if back, err = loadSnapshot(tmp, k); err != nil {
		_ = os.Remove(tmp)
		return nil, Snapshot{}, 0, fmt.Errorf("core: WriteSnapshot: reading back: %w", err)
	}
	readBack = time.Since(start)
	if snap, err = placeSnapshot(dir, tmp); err != nil {
		_ = back.Close()
		return nil, Snapshot{}, 0, err
	}
	return back, snap, readBack, nil
}

// placeSnapshot links the verified file tmp into dir under the next free
// generation name and fsyncs dir; tmp goes either way. A link never
// replaces a file, so a generation number names one file forever: a name
// another publisher took first sends this one to the next number. A
// placement that fails leaves no new name behind.
func placeSnapshot(dir, tmp string) (Snapshot, error) {
	// The temp's unlink need not be durable: one a crash brings back is
	// swept as stale.
	defer os.Remove(tmp)
	var gen uint64
	for {
		snaps, err := listGenerations(dir) // a stale generation keeps its number
		if err != nil {
			return Snapshot{}, err
		}
		if len(snaps) > 0 {
			gen = max(gen, snaps[len(snaps)-1].Gen)
		}
		gen++
		path := filepath.Join(dir, SnapshotName(gen))
		err = fault.Hit(fault.SiteSnapshotLink)
		if err == nil {
			err = os.Link(tmp, path)
		}
		switch {
		case errors.Is(err, os.ErrExist):
			continue
		case err != nil:
			return Snapshot{}, fmt.Errorf("core: WriteSnapshot: placing generation %d: %w", gen, err)
		}
		if err := SyncDir(dir); err != nil {
			_ = os.Remove(path) // best effort: the name is not durable
			return Snapshot{}, fmt.Errorf("core: WriteSnapshot: placing generation %d: %w", gen, err)
		}
		return Snapshot{Gen: gen, Path: path}, nil
	}
}

// CurrentSnapshot resolves the snapshot a reload serves: the highest
// generation in dir in the format this build serves. It does not load the
// file; RecoverSnapshot does, and falls back past one that fails. It
// returns ErrNoSnapshot (wrapped) when no such generation exists, and
// ErrFormat too, naming the format, when stale generations are all there
// is.
func CurrentSnapshot(dir string) (path string, gen uint64, err error) {
	snaps, err := listGenerations(dir)
	if err != nil {
		return "", 0, err
	}
	var stale error
	for i := len(snaps) - 1; i >= 0; i-- {
		s := snaps[i]
		if stale = staleFormat(s.Path); stale == nil {
			return s.Path, s.Gen, nil
		}
	}
	if stale != nil {
		return "", 0, fmt.Errorf("core: %s: only stale generations: %w: %w", dir, stale, ErrNoSnapshot)
	}
	return "", 0, fmt.Errorf("core: %s: %w", dir, ErrNoSnapshot)
}

// RecoverSnapshot loads the newest generation in dir that loads — CRC and
// shape checks included — walking down past any that fail: a truncated or
// corrupt newest generation (a partial rsync, bit rot) falls back to the
// one before it. A stale generation never loads and counts as absent.
// recovered reports that a newer generation in the format this build
// serves failed to load, and snap.Skipped says why — the operator's cue
// to investigate and re-publish. When nothing loads, the error wraps
// ErrNoSnapshot and the last failure, so "empty directory", "every
// generation corrupt" and "only stale generations" (ErrFormat, naming the
// format) read differently in logs.
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

// recoverSnapshot is the one newest-first ladder, over files of kind k.
func recoverSnapshot(dir string, k *snapKind) (ix *Index, snap Snapshot, recovered bool, err error) {
	sweepStaleTemps(dir)
	snaps, err := listGenerations(dir)
	if err != nil {
		return nil, Snapshot{}, false, err
	}
	var skipped, last error // the newest servable-format failure; the most recent failure
	for i := len(snaps) - 1; i >= 0; i-- {
		s := snaps[i]
		ix, err := loadSnapshot(s.Path, k)
		if err == nil {
			s.Skipped = skipped
			return ix, s, skipped != nil, nil
		}
		if skipped == nil && !errors.Is(err, ErrFormat) {
			skipped = err
		}
		last = err
	}
	if last != nil {
		return nil, Snapshot{}, false, fmt.Errorf("core: %s: no loadable %s snapshot (last failure: %w): %w", dir, k.name, last, ErrNoSnapshot)
	}
	return nil, Snapshot{}, false, fmt.Errorf("core: %s: %w", dir, ErrNoSnapshot)
}

// KeepSnapshots is how many generations a publisher leaves in a snapshot
// directory: the newest plus two older ones — what the recovery ladder
// falls back to when the newest is damaged, and what an operator can roll
// back to by publishing one again. Everything published (boot priming,
// drift rebuilds, per-shard slices) would otherwise accumulate until the
// disk fills.
const KeepSnapshots = 3

// PruneSnapshots deletes all but the newest keep generations from dir,
// stale ones counted, and sweeps crash-orphaned temp files as a side
// effect. It returns how many snapshot files were removed (swept temps are
// not counted). keep < 1 is treated as 1: a snapshot directory must not be
// pruned to nothing.
func PruneSnapshots(dir string, keep int) (removed int, err error) {
	sweepStaleTemps(dir)
	snaps, err := listGenerations(dir)
	if err != nil {
		return 0, err
	}
	for _, s := range snaps[:max(len(snaps)-max(keep, 1), 0)] {
		if err := os.Remove(s.Path); err != nil {
			return removed, fmt.Errorf("core: PruneSnapshots: %w", err)
		}
		removed++
	}
	return removed, nil
}

// WalFloor returns the ingest-WAL sequence every generation in dir holds:
// the smallest WAL sequence in their headers, which each generation's graph
// section covers. A WAL may delete the records at or below it, since a boot
// or a recovery serves one of these generations and replays only what lies
// past its own sequence. A generation whose header does not read as one
// this build serves holds nothing, and neither does an empty directory: the
// floor is then 0.
func WalFloor(dir string) (uint64, error) {
	snaps, err := listGenerations(dir)
	if err != nil || len(snaps) == 0 {
		return 0, err
	}
	floor := uint64(math.MaxUint64)
	for _, s := range snaps {
		floor = min(floor, headerWalSeq(s.Path))
	}
	return floor, nil
}

// headerWalSeq reads the WAL sequence from the checksummed header of the
// index file at path, 0 when it cannot.
func headerWalSeq(path string) uint64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	head := make([]byte, pageSize)
	if _, err := io.ReadFull(f, head); err != nil || checkHead(head, indexKind) != nil ||
		crc32.ChecksumIEEE(head[:headerCRCOff]) != binary.LittleEndian.Uint32(head[headerCRCOff:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(head[walSeqOff:])
}
