package core

// persist.go implements binary serialisation of the precomputed factors so
// the expensive phase I of Algorithm 1 can run once (offline, on a beefy
// box) and the cheap phase II can be served from anywhere — the deployment
// split the paper's preprocessing/query architecture implies.
//
// A snapshot file is one factor block (F, row-major) under one of two
// headers: "CSRX", a whole index with its build metadata, and "CSRS", the
// row range [lo, hi) of one. Everything here and in persist2.go is written
// once and takes the header kind as an argument. Files are written and
// served in the mmap-able v4 layout (persist2.go; byte layout in DESIGN.md
// §13); files of earlier versions are refused with ErrFormat.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"csrplus/internal/fault"
)

// snapKind is one of the two headers a snapshot file can carry.
type snapKind struct {
	magic [4]byte
	name  string // names the kind in error messages
	whole bool   // CSRX: rows are [0, n) and sigma, iters and walSeq travel along
}

var (
	indexKind = &snapKind{magic: [4]byte{'C', 'S', 'R', 'X'}, name: "index", whole: true}
	shardKind = &snapKind{magic: [4]byte{'C', 'S', 'R', 'S'}, name: "shard"}
)

// maxIndexElems caps n*rank at load time so a corrupt header cannot make
// the reader attempt a multi-terabyte allocation.
const maxIndexElems = 1 << 34

// maxPlatformElems is the largest element count that survives conversion
// to int on this platform. maxIndexElems alone exceeds MaxInt32, so on a
// 32-bit build a valid-looking header could wrap int(nNodes*rank) to a
// negative or small count and mis-read the payload; headers are bounded
// by both. A variable so the 64-bit test suite can shrink it to the
// 32-bit value and exercise the rejection path.
var maxPlatformElems = uint64(math.MaxInt)

// maxIndexIters caps the recorded squaring-iteration count. Algorithm 1
// doubles the horizon per iteration, so real values are tiny (< 64);
// the cap only needs to reject forged values (e.g. 2^63, which would
// silently convert to a negative int) while accepting anything a real
// precompute could produce.
const maxIndexIters = 1 << 16

// snapHeader is the header of either kind, decoded but not yet trusted.
type snapHeader struct {
	n, rank uint64
	c       float64
	lo, hi  uint64 // owned rows; [0, n) for an index
	iters   uint64 // index only
	walSeq  uint64 // index only
	build   uint64
	clamp   float64
}

// validate rejects every header a real writer could not have produced,
// so the int conversions and allocations that follow are safe.
func (h *snapHeader) validate(k *snapKind) error {
	// The product test divides rather than multiplies: a forged header with
	// both words near 2^64 would overflow n*rank back into plausible range
	// and sail past a multiplication-based bound.
	if h.n == 0 || h.rank == 0 || h.rank > h.n || h.n > maxIndexElems/h.rank {
		return fmt.Errorf("core: implausible %s shape n=%d r=%d: %w", k.name, h.n, h.rank, ErrCorrupt)
	}
	if k.whole {
		if h.iters > maxIndexIters {
			return fmt.Errorf("core: implausible iteration count %d: %w", h.iters, ErrCorrupt)
		}
	} else {
		if h.lo >= h.hi || h.hi > h.n {
			return fmt.Errorf("core: implausible shard range [%d, %d) of n=%d: %w", h.lo, h.hi, h.n, ErrCorrupt)
		}
		if h.walSeq != 0 {
			return fmt.Errorf("core: shard carries WAL sequence %d: %w", h.walSeq, ErrCorrupt)
		}
	}
	// n*rank fits the format cap, so nothing below overflows; it must also
	// survive conversion to int. The global count is converted too: on a
	// 32-bit build a 2^33-node shard header would wrap even when the
	// shard's own slice fits.
	if h.n > maxPlatformElems || (h.hi-h.lo)*h.rank > maxPlatformElems {
		return fmt.Errorf("core: %s shape n=%d rows=%d r=%d exceeds platform int: %w", k.name, h.n, h.hi-h.lo, h.rank, ErrCorrupt)
	}
	if h.c <= 0 || h.c >= 1 || math.IsNaN(h.c) {
		return fmt.Errorf("core: implausible damping %v: %w", h.c, ErrCorrupt)
	}
	// Like sigma, a NaN or negative charge is honest bytes that would
	// poison every bound computed from it.
	if !(h.clamp >= 0) || math.IsInf(h.clamp, 0) {
		return fmt.Errorf("core: implausible clamp charge %v: %w", h.clamp, ErrCorrupt)
	}
	return nil
}

// rows is the factor-block row count of a validated header.
func (h *snapHeader) rows() int { return int(h.hi - h.lo) }

// index starts the Index a validated header describes; the caller fills
// in the factor. For a shard file only the embedded IndexShard means
// anything, and the shard-typed entry points return just that.
func (h *snapHeader) index(sigma []float64) *Index {
	return &Index{
		IndexShard: IndexShard{n: int(h.n), lo: int(h.lo), hi: int(h.hi), c: h.c, rank: int(h.rank), build: h.build, clamp: h.clamp},
		iters:      int(h.iters),
		sigma:      sigma,
		walSeq:     h.walSeq,
	}
}

// checkSigma rejects non-finite or negative singular values: NaN/±Inf
// entries pass the CRC (they are honest bytes) but poison every query
// and every truncation bound computed from them.
func checkSigma(sigma []float64) error {
	for i, s := range sigma {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			return fmt.Errorf("core: non-finite or negative sigma[%d]=%v: %w", i, s, ErrCorrupt)
		}
	}
	return nil
}

// ErrCorrupt is returned (wrapped) when an index file fails validation.
var ErrCorrupt = errors.New("core: corrupt index file")

// corruptEOF folds premature end-of-stream into ErrCorrupt: a truncated
// index file is a corrupt index file, and callers branch on errors.Is
// (ErrCorrupt), not on which section the bytes ran out in. Genuine I/O
// errors (disk faults) pass through unchanged.
func corruptEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
	return err
}

// ReadIndex deserialises a CSRX stream, validating magic, version, shape
// bounds and checksums. Every validation failure — bad magic, unknown
// version, implausible header, truncation in any section, checksum
// mismatch — is reported as a wrapped ErrCorrupt, and a stream in an
// earlier format as a wrapped ErrFormat. The stream is decoded into fresh
// allocations; use MapIndex for the zero-copy path.
func ReadIndex(r io.Reader) (*Index, error) {
	return readSnapshot(r, indexKind, 0)
}

// ReadShard is ReadIndex for CSRS streams.
func ReadShard(r io.Reader) (*IndexShard, error) {
	return shardOf(readSnapshot(r, shardKind, 0))
}

// shardOf narrows what the shared readers return for a shard file to the
// part of it that means anything (see snapHeader.index).
func shardOf(ix *Index, err error) (*IndexShard, error) {
	if err != nil {
		return nil, err
	}
	return &ix.IndexShard, nil
}

// readSnapshot is the one stream reader: it checks the magic and version
// before reading further, so a stream of another kind or format is refused
// unread, and hands the image to openPaged. size is the stream's length
// where the caller knows it (a file's), 0 where not.
func readSnapshot(r io.Reader, k *snapKind, size int64) (*Index, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(8)
	if err != nil {
		return nil, fmt.Errorf("core: reading %s header: %w", k.name, corruptEOF(err))
	}
	if _, err := checkHead(head, k, false); err != nil {
		return nil, err
	}
	data, err := readImage(br, size)
	if err != nil {
		return nil, fmt.Errorf("core: reading %s: %w", k.name, corruptEOF(err))
	}
	return openPaged(data, k, false)
}

// SaveIndex writes the index to path atomically and crash-consistently:
// the bytes go to a temp file in the same directory, are fsynced so they
// are durable before they can become visible, and only then renamed over
// path; the parent directory is fsynced afterwards so the rename itself
// survives a crash. A kill at any point leaves either the old file, the
// new file, or a stray temp file — never a truncated index at path.
// Files are written in the mmap-able v4 layout (persist2.go).
func SaveIndex(ix *Index, path string) error {
	return saveAtomic("SaveIndex", path, ix.WriteTo)
}

// SaveShard is SaveIndex for one shard, under the CSRS header.
func SaveShard(sh *IndexShard, path string) error {
	return saveAtomic("SaveShard", path, sh.WriteTo)
}

// saveAtomic is the write-temp/fsync/rename/fsync-dir discipline shared
// by SaveIndex and SaveShard; op names the caller in error messages.
func saveAtomic(op, path string, writeTo func(io.Writer) (int64, error)) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempSavePrefix+"*")
	if err != nil {
		return fmt.Errorf("core: %s: %w", op, err)
	}
	defer os.Remove(tmp.Name())
	// The fault wrapper (chaos builds only) can tear or fail the payload
	// write mid-file — upstream of the rename, so an injected "crash"
	// must leave path untouched exactly like a real one.
	if _, err := writeTo(fault.Writer(fault.SiteIndexWrite, tmp)); err != nil {
		tmp.Close()
		return err
	}
	// Data must hit stable storage before the rename can publish it:
	// rename-then-crash without this fsync is exactly how a reboot yields
	// a visible, complete-looking file full of zero pages.
	if err := fault.Hit(fault.SiteIndexSync); err != nil {
		tmp.Close()
		return fmt.Errorf("core: %s: fsync: %w", op, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: %s: fsync: %w", op, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: %s: %w", op, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: %s: %w", op, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("core: %s: %w", op, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-completed rename is durable. On
// platforms whose filesystems reject directory fsync (notably Windows)
// it is a no-op: the rename is still atomic, just not crash-durable.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadIndex reads an index from path. The snapshot is memory-mapped
// (verified, zero-copy — O(1) in index size) where the platform allows;
// non-mmap platforms, big-endian hosts and injected map faults fall back to
// the buffered decode path. Corruption never falls back, and neither does an
// earlier format (ErrFormat): a file that cannot serve fails here so the
// recovery ladder can move to another generation. Callers own Close on the
// returned index (a no-op for decoded indexes).
func LoadIndex(path string) (*Index, error) {
	return loadSnapshot(path, indexKind)
}

// LoadShard reads a shard file from path, mapped where LoadIndex would map
// it and decoded where not. The caller owns Close on the returned file.
func LoadShard(path string) (*ShardFile, error) {
	return shardFileOf(loadSnapshot(path, shardKind))
}

// ShardFile is a shard as loaded from its snapshot file: the IndexShard the
// slots serve and, when the file is memory-mapped, the handle that owns the
// pages behind it. As with Index, the owner holds the mapping and the view
// does not (DESIGN.md §13, rule 3): Close unmaps, after which the shard must
// not be touched — a worker closes a retired generation only once its slot's
// swap has drained every call pinned to it.
type ShardFile struct {
	*IndexShard
	mapped *mapping
}

// Close releases the mapping behind a mapped shard file; it is a no-op for a
// decoded one and safe to call more than once.
func (f *ShardFile) Close() error { return f.mapped.close() }

// Mapped reports whether the shard's factor is a view over a mapped file.
func (f *ShardFile) Mapped() bool { return f.mapped != nil }

// shardFileOf hands what the shared loaders return for a shard file on with
// its mapping (see snapHeader.index).
func shardFileOf(ix *Index, err error) (*ShardFile, error) {
	if err != nil {
		return nil, err
	}
	return &ShardFile{IndexShard: &ix.IndexShard, mapped: ix.mapped}, nil
}

// loadSnapshot is the one file loader: every v4 file maps, whole indexes
// and shard files alike, and on non-mmap platforms, big-endian hosts and
// under injected map faults it decodes. The caller owns what
// was mapped — a whole index's generation closes it from Candidate.Release
// after serve's swap has drained, a worker after Local.Swap has drained.
func loadSnapshot(path string, k *snapKind) (*Index, error) {
	ix, err := mapSnapshot(path, k)
	switch {
	case err == nil:
		return ix, nil
	case !errors.Is(err, errMapUnsupported):
		return nil, fmt.Errorf("core: loading %s %s: %w", k.name, path, err)
	}
	return decodeFile(path, k)
}

// decodeFile is loadSnapshot's fallback: the buffered decode of the file
// into fresh heap allocations.
func decodeFile(path string, k *snapKind) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: loading %s: %w", k.name, err)
	}
	defer f.Close()
	// The fault wrapper (chaos builds only) injects read errors and
	// latency — a degraded disk during a reload.
	var size int64
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	ix, err := readSnapshot(fault.Reader(fault.SiteIndexRead, f), k, size)
	if err != nil {
		return nil, fmt.Errorf("core: loading %s %s: %w", k.name, path, err)
	}
	return ix, nil
}

// readImage reads r to its end, into one buffer of size bytes when the
// caller knows the stream's length: io.ReadAll grows its buffer by
// reallocation and leaves several times the image behind as garbage, which
// on the decode fallback is most of a boot's heap. size comes from the file
// system, never from the image's header, so a forged header cannot size the
// allocation; a stream that turns out shorter or longer than size is still
// returned whole, for openPaged to reject against the length its header
// records. An unknown (or unrepresentable) size falls back to ReadAll.
func readImage(r io.Reader, size int64) ([]byte, error) {
	if size <= 0 || uint64(size) > maxPlatformElems {
		return io.ReadAll(r)
	}
	buf := make([]byte, size)
	n, err := io.ReadFull(r, buf)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return buf[:n], nil
	}
	if err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(r) // empty unless the file grew since Stat
	return append(buf, rest...), err
}

// countingWriter tracks bytes written for WriteTo's contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
