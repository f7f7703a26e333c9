package core

// persist.go implements binary serialisation of the precomputed factors so
// the expensive phase I of Algorithm 1 can run once (offline, on a beefy
// box) and the cheap phase II can be served from anywhere — the deployment
// split the paper's preprocessing/query architecture implies.
//
// A snapshot file is one factor block (Z then U, row-major) under one of
// two headers: "CSRX", a whole index with its build metadata, and "CSRS",
// the row range [lo, hi) of one. Everything here and in persist2.go is
// written once and takes the header kind as an argument. Files are written
// in the mmap-able v3 layout (persist2.go); its predecessor v2 and v1, the
// original streaming layout, are read-only and stay readable forever behind
// the golden files in testdata/. v1:
//
//	magic   [4]byte  "CSRX" / "CSRS"
//	version uint32   1
//	CSRX:   n, rank uint64; c float64; iters uint64; sigma [rank]float64
//	CSRS:   n, lo, hi, rank uint64; c float64
//	z, u    [rows*rank]float64 each (rows = n, or hi-lo)
//	crc     uint32   IEEE CRC-32 of everything after the magic
//
// DESIGN.md §13 has the v2 and v3 byte layouts.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"csrplus/internal/dense"
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

// indexVersion is the decode-only v1 format version.
const indexVersion = 1

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

// snapHeader is the header of either kind in either version, decoded but
// not yet trusted.
type snapHeader struct {
	n, rank uint64
	c       float64
	lo, hi  uint64 // owned rows; [0, n) for an index
	iters   uint64 // index only
	walSeq  uint64 // index only, v2 only
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
	return nil
}

// rows is the factor-block row count of a validated header.
func (h *snapHeader) rows() int { return int(h.hi - h.lo) }

// index starts the Index a validated header describes; the caller fills
// in the factors. For a shard file only the embedded IndexShard means
// anything, and the shard-typed entry points return just that.
func (h *snapHeader) index(sigma []float64) *Index {
	return &Index{
		IndexShard: IndexShard{n: int(h.n), lo: int(h.lo), hi: int(h.hi), c: h.c, rank: int(h.rank)},
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

// ReadIndex deserialises a CSRX stream of any version, validating magic,
// version, shape bounds and checksums. Every validation failure — bad
// magic, unknown version, implausible header, truncation in any section,
// checksum mismatch — is reported as a wrapped ErrCorrupt. v2 and v3
// streams are decoded into fresh allocations; use MapIndex for the
// zero-copy path.
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

// readSnapshot is the one stream reader: it sniffs the version and hands
// v2 and v3 images to decodePaged and everything else to the v1 decoder
// below. size is the stream's length where the caller knows it (a file's),
// 0 where not.
func readSnapshot(r io.Reader, k *snapKind, size int64) (*Index, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(8); err == nil {
		if v := binary.LittleEndian.Uint32(head[4:]); v == indexVersion2 || v == indexVersion3 {
			data, err := readImage(br, size)
			if err != nil {
				return nil, fmt.Errorf("core: reading v%d %s: %w", v, k.name, corruptEOF(err))
			}
			return decodePaged(data, k)
		}
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading %s magic: %w", k.name, corruptEOF(err))
	}
	if magic != k.magic {
		return nil, fmt.Errorf("core: bad %s magic %q: %w", k.name, magic, ErrCorrupt)
	}
	crc := crc32.NewIEEE()
	body := io.TeeReader(br, crc)
	le := binary.LittleEndian
	var version uint32
	if err := binary.Read(body, le, &version); err != nil {
		return nil, fmt.Errorf("core: reading %s version: %w", k.name, corruptEOF(err))
	}
	if version != indexVersion {
		return nil, fmt.Errorf("core: %s version %d, want %d: %w", k.name, version, indexVersion, ErrCorrupt)
	}
	var h snapHeader
	var cBits uint64
	words := []*uint64{&h.n, &h.lo, &h.hi, &h.rank, &cBits}
	if k.whole {
		words = []*uint64{&h.n, &h.rank, &cBits, &h.iters}
	}
	for _, dst := range words {
		if err := binary.Read(body, le, dst); err != nil {
			return nil, fmt.Errorf("core: reading %s header: %w", k.name, corruptEOF(err))
		}
	}
	h.c = math.Float64frombits(cBits)
	if k.whole {
		h.hi = h.n
	}
	if err := h.validate(k); err != nil {
		return nil, err
	}
	var sigma []float64
	if k.whole {
		var err error
		if sigma, err = readFloats(body, int(h.rank), size); err != nil {
			return nil, fmt.Errorf("core: reading sigma: %w", corruptEOF(err))
		}
		if err := checkSigma(sigma); err != nil {
			return nil, err
		}
	}
	rows, rank := h.rows(), int(h.rank)
	zdata, err := readFloats(body, rows*rank, size)
	if err != nil {
		return nil, fmt.Errorf("core: reading %s Z: %w", k.name, corruptEOF(err))
	}
	udata, err := readFloats(body, rows*rank, size)
	if err != nil {
		return nil, fmt.Errorf("core: reading %s U: %w", k.name, corruptEOF(err))
	}
	sum := crc.Sum32()
	var want uint32
	if err := binary.Read(br, le, &want); err != nil {
		return nil, fmt.Errorf("core: reading %s checksum: %w", k.name, corruptEOF(err))
	}
	if sum != want {
		return nil, fmt.Errorf("core: %s checksum %08x, want %08x: %w", k.name, sum, want, ErrCorrupt)
	}
	ix := h.index(sigma)
	// Wrapped, not copied: the decoded slices are this index's alone.
	ix.z = &dense.Typed{Kind: dense.F64, Rows: rows, Cols: rank, F64: zdata}
	ix.u = &dense.Typed{Kind: dense.F64, Rows: rows, Cols: rank, F64: udata}
	return ix, nil
}

// SaveIndex writes the index to path atomically and crash-consistently:
// the bytes go to a temp file in the same directory, are fsynced so they
// are durable before they can become visible, and only then renamed over
// path; the parent directory is fsynced afterwards so the rename itself
// survives a crash. A kill at any point leaves either the old file, the
// new file, or a stray temp file — never a truncated index at path.
// Files are written in the mmap-able v3 layout (persist2.go); v1 and v2
// files remain readable via LoadIndex/ReadIndex forever.
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

// LoadIndex reads an index from path. v2 and v3 snapshots are memory-mapped
// (verified, zero-copy — O(1) in index size) where the platform allows;
// v1 files, non-mmap platforms, big-endian hosts and injected map
// faults fall back to the buffered decode path. Corruption never falls
// back: a bad mappable file fails here so the recovery ladder can move to an
// older generation. Callers own Close on the returned index (a no-op
// for decoded indexes).
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

// Mapped reports whether the shard's factors are views over a mapped file.
func (f *ShardFile) Mapped() bool { return f.mapped != nil }

// shardFileOf hands what the shared loaders return for a shard file on with
// its mapping (see snapHeader.index).
func shardFileOf(ix *Index, err error) (*ShardFile, error) {
	if err != nil {
		return nil, err
	}
	return &ShardFile{IndexShard: &ix.IndexShard, mapped: ix.mapped}, nil
}

// loadSnapshot is the one file loader: every v2 and v3 file maps, whole
// indexes and shard files alike, and v1 files, non-mmap platforms,
// big-endian hosts and injected map faults decode. The caller owns what
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
// returned whole, for decodePaged to reject against the length its header
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

func writeFloats(w io.Writer, data []float64) error {
	buf := make([]byte, 8*4096)
	le := binary.LittleEndian
	for len(data) > 0 {
		chunk := len(data)
		if chunk > 4096 {
			chunk = 4096
		}
		for i := 0; i < chunk; i++ {
			le.PutUint64(buf[i*8:], math.Float64bits(data[i]))
		}
		if _, err := w.Write(buf[:chunk*8]); err != nil {
			return err
		}
		data = data[chunk:]
	}
	return nil
}

// readFloats reads count float64s of a stream whose length is size bytes
// where the caller knows it (a file's, from the file system), 0 where not.
func readFloats(r io.Reader, count int, size int64) ([]float64, error) {
	// Grow the slice only as bytes actually arrive: a forged header
	// claiming a huge payload on a short stream must fail after one
	// chunk, not commit a multi-gigabyte allocation up front. A payload the
	// file is long enough to hold is no forgery of that kind, and is
	// allocated once.
	const chunkElems = 4096
	capHint := count
	if capHint > chunkElems && uint64(count)*8 > uint64(max(size, 0)) {
		capHint = chunkElems
	}
	out := make([]float64, 0, capHint)
	buf := make([]byte, 8*chunkElems)
	le := binary.LittleEndian
	for off := 0; off < count; {
		chunk := count - off
		if chunk > chunkElems {
			chunk = chunkElems
		}
		if _, err := io.ReadFull(r, buf[:chunk*8]); err != nil {
			return nil, err
		}
		for i := 0; i < chunk; i++ {
			out = append(out, math.Float64frombits(le.Uint64(buf[i*8:])))
		}
		off += chunk
	}
	return out, nil
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
