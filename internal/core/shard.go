package core

// shard.go implements the row-range slicing that makes CSR+ shardable:
// because phase II is [S]_{*,Q} = [I_n]_{*,Q} + c · Z · [U]_{Q,*}ᵀ, output
// row i depends only on row i of Z (plus the |Q| broadcast rows of U), so
// the factor matrices partition cleanly by contiguous node range. A shard
// owns rows [lo, hi) of both Z and U and can score exactly its own nodes;
// a router that gathers the U rows of the query nodes from their owner
// shards and broadcasts them reproduces the monolithic answer bitwise —
// same dot-product kernel, same per-element operation order (dot, ×c, +1).
//
// On-disk shard format (little endian), magic "CSRS":
//
//	magic   [4]byte  "CSRS"
//	version uint32   currently 1
//	n       uint64   GLOBAL node count
//	lo      uint64   first node owned (inclusive)
//	hi      uint64   one past the last node owned
//	rank    uint64   SVD rank r
//	c       float64  damping factor
//	z       [(hi-lo)*rank]float64   (row-major)
//	u       [(hi-lo)*rank]float64   (row-major)
//	crc     uint32   IEEE CRC-32 of everything after the magic
//
// The global n travels with every shard so a router can refuse to
// assemble shards cut from different graphs.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"csrplus/internal/dense"
	"csrplus/internal/fault"
)

var shardMagic = [4]byte{'C', 'S', 'R', 'S'}

// shardVersion is the current on-disk shard format version.
const shardVersion = 1

// IndexShard is the contiguous node range [Lo, Hi) of an Index: the
// corresponding rows of Z and U plus the global metadata (n, c, rank)
// needed to answer queries and to validate reassembly. It is immutable
// after construction, so any number of goroutines may query it.
type IndexShard struct {
	n      int // global node count
	lo, hi int
	c      float64
	rank   int
	z      *dense.Mat // rows [lo, hi) of Z, (hi-lo) x rank — exact tier only
	u      *dense.Mat // rows [lo, hi) of U, (hi-lo) x rank — exact tier only

	// Quantized tiers mirror Index: typed factor slices plus the measured
	// per-column dequantisation errors (global per-column, shared by all
	// shards cut from one index, so routers can recompose the bound).
	zt, ut       *dense.Typed
	zqerr, uqerr []float64

	// mapped is non-nil when the factors view an mmap (MapShard).
	mapped *mapping
}

// Shard slices the index to the node range [lo, hi). The shard is a
// zero-copy view: it shares the index's backing arrays, so slicing an
// index into K shards costs O(K), not O(rn). When the index is memory-
// mapped the view aliases the mapping, and the caller owns the lifetime:
// the index must stay open until no query can still reach the shard (a
// serving generation closes it from reload.Candidate.Release, after the
// swap that retired the generation has drained).
func (ix *Index) Shard(lo, hi int) (*IndexShard, error) {
	if lo < 0 || hi > ix.n || lo >= hi {
		return nil, fmt.Errorf("core: shard range [%d, %d) not within [0, %d): %w", lo, hi, ix.n, ErrParams)
	}
	sh := ix.view(lo, hi)
	return &sh, nil
}

// view is Shard without the range check, by value so the whole-index
// view QueryRankInto runs on stays off the heap.
func (ix *Index) view(lo, hi int) IndexShard {
	sh := IndexShard{n: ix.n, lo: lo, hi: hi, c: ix.c, rank: ix.rank, zqerr: ix.zqerr, uqerr: ix.uqerr}
	if ix.zt != nil {
		sh.zt = ix.zt.SliceRowsView(lo, hi)
		sh.ut = ix.ut.SliceRowsView(lo, hi)
		return sh
	}
	sh.z = &dense.Mat{Rows: hi - lo, Cols: ix.rank, Data: ix.z.Data[lo*ix.rank : hi*ix.rank]}
	sh.u = &dense.Mat{Rows: hi - lo, Cols: ix.rank, Data: ix.u.Data[lo*ix.rank : hi*ix.rank]}
	return sh
}

// N returns the GLOBAL node count of the graph the shard was cut from.
func (sh *IndexShard) N() int { return sh.n }

// Lo returns the first node the shard owns.
func (sh *IndexShard) Lo() int { return sh.lo }

// Hi returns one past the last node the shard owns.
func (sh *IndexShard) Hi() int { return sh.hi }

// Rows returns how many nodes the shard owns.
func (sh *IndexShard) Rows() int { return sh.hi - sh.lo }

// Rank returns the SVD rank of the shard's factors.
func (sh *IndexShard) Rank() int { return sh.rank }

// Damping returns the damping factor baked into the shard.
func (sh *IndexShard) Damping() float64 { return sh.c }

// Bytes reports the resident memory of the shard's factors — the 1/K
// slice of the index's O(rn) that actually lives on this shard, at the
// tier's element width.
func (sh *IndexShard) Bytes() int64 {
	if sh.zt != nil {
		return sh.zt.Bytes() + sh.ut.Bytes()
	}
	return sh.z.Bytes() + sh.u.Bytes()
}

// Tier returns the storage tier of the shard's factors.
func (sh *IndexShard) Tier() Tier {
	if sh.zt == nil {
		return TierF64
	}
	if sh.zt.Kind == dense.F32 {
		return TierF32
	}
	return TierI8
}

// Owns reports whether global node q falls in the shard's range.
func (sh *IndexShard) Owns(q int) bool { return q >= sh.lo && q < sh.hi }

// URow returns the shard's U row for global node q, which must be owned.
// For the exact tier the slice aliases the shard's backing array and must
// not be modified — it is the row a router gathers into its query
// broadcast, and sharing the exact float64s is what keeps sharded scores
// bitwise-identical to the monolithic path. Quantized tiers return a
// fresh dequantised copy; because dequantisation is elementwise, the
// copy's float64s still equal the ones a quantized monolith would gather,
// preserving the bitwise contract tier-for-tier.
func (sh *IndexShard) URow(q int) []float64 {
	if !sh.Owns(q) {
		panic(fmt.Sprintf("core: URow(%d) outside shard [%d, %d)", q, sh.lo, sh.hi))
	}
	if sh.ut != nil {
		return sh.ut.RowInto(q-sh.lo, make([]float64, sh.rank))
	}
	return sh.u.Row(q - sh.lo)
}

// PartialInto computes the shard's slice of a (possibly rank-truncated)
// phase II answer: rows [lo, hi) of S' = [I]_{*,Q} + c · Z_{*,<r'} ·
// (U_{Q,<r'})ᵀ, written into out (which must be (hi-lo) x |Q|; pass a
// band view of a shared n x |Q| matrix for zero-copy scatter). uq holds
// the gathered U rows of the queries, row j for queries[j] — gathered
// globally by the router because query nodes usually live on other
// shards. queries are global ids and are only used here to place the +1
// self-similarity for query nodes this shard owns.
//
// This is the one banded phase-II loop: Index.QueryRankInto runs it over
// the [0, n) view, so stitching every shard's PartialInto output together
// reproduces the monolithic answer bitwise (each output element is one dot
// product in column index order, then ×c, then +1, whatever the banding).
// The GEMM runs in row bands with a cancellation check between bands, so a
// batch whose callers have all gone away stops consuming its worker
// mid-pass; returns ctx.Err() on cancellation.
func (sh *IndexShard) PartialInto(ctx context.Context, queries []int, uq *dense.Mat, rank int, out *dense.Mat) error {
	cols := len(queries)
	if cols == 0 {
		return fmt.Errorf("core: empty query set: %w", ErrParams)
	}
	if !uq.IsShape(cols, sh.rank) {
		return fmt.Errorf("core: uq is %dx%d, want %dx%d: %w", uq.Rows, uq.Cols, cols, sh.rank, ErrParams)
	}
	if !out.IsShape(sh.Rows(), cols) {
		return fmt.Errorf("core: out is %dx%d, want %dx%d: %w", out.Rows, out.Cols, sh.Rows(), cols, ErrParams)
	}
	if rank <= 0 || rank > sh.rank {
		rank = sh.rank
	}
	rows := sh.Rows()
	for lo := 0; lo < rows; lo += queryBandRows {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + queryBandRows
		if hi > rows {
			hi = rows
		}
		sBand := &dense.Mat{Rows: hi - lo, Cols: cols, Data: out.Data[lo*cols : hi*cols]}
		if sh.zt != nil {
			dense.MulTRankTypedInto(sBand, sh.zt.SliceRowsView(lo, hi), uq, rank)
		} else {
			zBand := &dense.Mat{Rows: hi - lo, Cols: sh.rank, Data: sh.z.Data[lo*sh.rank : hi*sh.rank]}
			dense.MulTRankInto(sBand, zBand, uq, rank)
		}
	}
	out.Scale(sh.c)
	for j, q := range queries {
		if sh.Owns(q) {
			i := q - sh.lo
			out.Set(i, j, out.At(i, j)+1)
		}
	}
	return nil
}

// ScoreRows computes the scores of chosen owned rows against every query
// column — the targeted-pair primitive behind /similarity in the wire
// deployment, where materialising even one shard's full band for a
// handful of (query, target) pairs would waste the worker's memory
// bandwidth. out[i*|Q|+j] scores global row rows[i] against queries[j]:
// s = 1{rows[i]==queries[j]} + c · Σ_{k<rank} Z[rows[i]][k]·uq[j][k].
//
// Each element is bitwise-equal to the same element of PartialInto's
// band: the GEMM kernels accumulate every output element independently in
// ascending column order (see dense.MulTRankInto), which is exactly the
// plain dot product below, and the per-element operation order (dot, ×c,
// +1) is shared. Quantized tiers dequantise the Z row elementwise first,
// matching MulTRankTypedInto's row bands.
func (sh *IndexShard) ScoreRows(ctx context.Context, queries []int, uq *dense.Mat, rows []int, rank int) ([]float64, error) {
	cols := len(queries)
	if cols == 0 {
		return nil, fmt.Errorf("core: empty query set: %w", ErrParams)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: empty row set: %w", ErrParams)
	}
	if !uq.IsShape(cols, sh.rank) {
		return nil, fmt.Errorf("core: uq is %dx%d, want %dx%d: %w", uq.Rows, uq.Cols, cols, sh.rank, ErrParams)
	}
	if rank <= 0 || rank > sh.rank {
		rank = sh.rank
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, len(rows)*cols)
	var zrow []float64
	if sh.zt != nil {
		zrow = make([]float64, sh.rank)
	}
	for i, t := range rows {
		if !sh.Owns(t) {
			return nil, fmt.Errorf("core: row %d outside shard [%d, %d): %w", t, sh.lo, sh.hi, ErrQuery)
		}
		if sh.zt != nil {
			sh.zt.RowInto(t-sh.lo, zrow)
		} else {
			zrow = sh.z.Row(t - sh.lo)
		}
		for j, q := range queries {
			urow := uq.Row(j)
			s := 0.0
			for k := 0; k < rank; k++ {
				s += zrow[k] * urow[k]
			}
			s *= sh.c
			if t == q {
				s++
			}
			out[i*cols+j] = s
		}
	}
	return out, nil
}

// ColMaxes returns the per-column maxima max|Z_{[lo:hi),j}| and
// max|U_{[lo:hi),j}| over the shard's rows. Because a max over the full
// column is the max of the per-shard maxima, a router combines these and
// runs Index.TruncationBound's recurrence to get a truncation bound
// bitwise-equal to the monolithic one.
func (sh *IndexShard) ColMaxes() (zmax, umax []float64) {
	if sh.zt != nil {
		return sh.zt.ColAbsMax(), sh.ut.ColAbsMax()
	}
	colMax := func(m *dense.Mat) []float64 {
		mx := make([]float64, m.Cols)
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for j, v := range row {
				if a := math.Abs(v); a > mx[j] {
					mx[j] = a
				}
			}
		}
		return mx
	}
	return colMax(sh.z), colMax(sh.u)
}

// QuantErrs returns the measured per-column dequantisation error vectors
// of a quantized shard (nil, nil for the exact tier). They are global
// per-column quantities — identical across every shard cut from one
// index — so a router can feed any shard's copy into QuantBound.
func (sh *IndexShard) QuantErrs() (zerr, uerr []float64) {
	return sh.zqerr, sh.uqerr
}

// QuantBound evaluates the entrywise quantisation error bound from
// combined per-column maxima and the measured dequantisation errors —
// the router-side twin of Index.QuantizationBound, sharing one formula.
func QuantBound(c float64, zmax, umax, zerr, uerr []float64) float64 {
	return quantTerm(c, zmax, umax, zerr, uerr)
}

// TailBound runs Index.TruncationBound's recurrence over combined
// per-column maxima: boundTail[j] = boundTail[j+1] + c·zmax[j]·umax[j],
// returning boundTail so callers can index it by retained rank. Exposed
// from core so the router and the Index share one formula.
func TailBound(c float64, zmax, umax []float64) []float64 {
	r := len(zmax)
	tail := make([]float64, r+1)
	for j := r - 1; j >= 0; j-- {
		tail[j] = tail[j+1] + c*zmax[j]*umax[j]
	}
	return tail
}

// WriteTo serialises the shard in the v1 format. It implements
// io.WriterTo. Quantized shards must be written as v2 (WriteToV2);
// SaveShard picks the right writer.
func (sh *IndexShard) WriteTo(w io.Writer) (int64, error) {
	if sh.zt != nil {
		return 0, fmt.Errorf("core: v1 shard format cannot hold a %v-tier shard: %w", sh.Tier(), ErrParams)
	}
	bw := bufio.NewWriter(w)
	n := &countingWriter{w: bw}
	if _, err := n.Write(shardMagic[:]); err != nil {
		return n.n, fmt.Errorf("core: writing shard magic: %w", err)
	}
	crc := crc32.NewIEEE()
	body := io.MultiWriter(n, crc)
	le := binary.LittleEndian
	if err := binary.Write(body, le, uint32(shardVersion)); err != nil {
		return n.n, fmt.Errorf("core: writing shard version: %w", err)
	}
	header := []uint64{uint64(sh.n), uint64(sh.lo), uint64(sh.hi), uint64(sh.rank), math.Float64bits(sh.c)}
	for _, s := range header {
		if err := binary.Write(body, le, s); err != nil {
			return n.n, fmt.Errorf("core: writing shard header: %w", err)
		}
	}
	for _, block := range [][]float64{sh.z.Data, sh.u.Data} {
		if err := writeFloats(body, block); err != nil {
			return n.n, fmt.Errorf("core: writing shard payload: %w", err)
		}
	}
	if err := binary.Write(n, le, crc.Sum32()); err != nil {
		return n.n, fmt.Errorf("core: writing shard checksum: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return n.n, fmt.Errorf("core: flushing shard: %w", err)
	}
	return n.n, nil
}

// ReadShard deserialises a shard written by WriteTo (v1) or WriteToV2,
// validating magic, version, shape bounds and checksums with the same
// discipline as ReadIndex: every validation failure is a wrapped
// ErrCorrupt.
func ReadShard(r io.Reader) (*IndexShard, error) {
	br := bufio.NewReader(r)
	if v, err := sniffVersion(br); err == nil && v == indexVersion2 {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading v2 shard: %w", corruptEOF(err))
		}
		return decodeShardV2(data)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading shard magic: %w", corruptEOF(err))
	}
	if magic != shardMagic {
		return nil, fmt.Errorf("core: bad shard magic %q: %w", magic, ErrCorrupt)
	}
	crc := crc32.NewIEEE()
	body := io.TeeReader(br, crc)
	le := binary.LittleEndian
	var version uint32
	if err := binary.Read(body, le, &version); err != nil {
		return nil, fmt.Errorf("core: reading shard version: %w", corruptEOF(err))
	}
	if version != shardVersion {
		return nil, fmt.Errorf("core: shard version %d, want %d: %w", version, shardVersion, ErrCorrupt)
	}
	var nNodes, lo, hi, rank, cBits uint64
	for _, dst := range []*uint64{&nNodes, &lo, &hi, &rank, &cBits} {
		if err := binary.Read(body, le, dst); err != nil {
			return nil, fmt.Errorf("core: reading shard header: %w", corruptEOF(err))
		}
	}
	c := math.Float64frombits(cBits)
	// Same divide-based overflow discipline as ReadIndex: a forged header
	// must not produce a plausible product by wrapping around.
	if nNodes == 0 || rank == 0 || rank > nNodes || nNodes > maxIndexElems/rank {
		return nil, fmt.Errorf("core: implausible shard shape n=%d r=%d: %w", nNodes, rank, ErrCorrupt)
	}
	if lo >= hi || hi > nNodes {
		return nil, fmt.Errorf("core: implausible shard range [%d, %d) of n=%d: %w", lo, hi, nNodes, ErrCorrupt)
	}
	if err := checkElemCount("shard", hi-lo, rank); err != nil {
		return nil, err
	}
	// The global count is converted to int too; on a 32-bit build a
	// 2^33-node header would wrap even when this shard's own slice fits.
	if nNodes > maxPlatformElems {
		return nil, fmt.Errorf("core: shard global n=%d exceeds platform int: %w", nNodes, ErrCorrupt)
	}
	if c <= 0 || c >= 1 || math.IsNaN(c) {
		return nil, fmt.Errorf("core: implausible damping %v: %w", c, ErrCorrupt)
	}
	rows := int(hi - lo)
	zdata, err := readFloats(body, rows*int(rank))
	if err != nil {
		return nil, fmt.Errorf("core: reading shard Z: %w", corruptEOF(err))
	}
	udata, err := readFloats(body, rows*int(rank))
	if err != nil {
		return nil, fmt.Errorf("core: reading shard U: %w", corruptEOF(err))
	}
	sum := crc.Sum32()
	var want uint32
	if err := binary.Read(br, le, &want); err != nil {
		return nil, fmt.Errorf("core: reading shard checksum: %w", corruptEOF(err))
	}
	if sum != want {
		return nil, fmt.Errorf("core: shard checksum %08x, want %08x: %w", sum, want, ErrCorrupt)
	}
	return &IndexShard{
		n:    int(nNodes),
		lo:   int(lo),
		hi:   int(hi),
		c:    c,
		rank: int(rank),
		z:    dense.NewMatFrom(rows, int(rank), zdata),
		u:    dense.NewMatFrom(rows, int(rank), udata),
	}, nil
}

// SaveShard writes the shard to path with the same atomic,
// crash-consistent discipline as SaveIndex (temp file, fsync, rename,
// directory fsync), through the same chaos fault sites. Shards are
// written in the CSRS v2 layout; v1 shard files remain readable.
func SaveShard(sh *IndexShard, path string) error {
	return saveAtomic("SaveShard", path, sh.WriteToV2)
}

// LoadShard reads a shard from path, through the same injected-fault read
// path as LoadIndex. Unlike LoadIndex it always decodes rather than
// mapping: the in-process shard router swaps slots without a drain
// barrier, so a mapped shard's munmap would race in-flight partials.
// Embedders that manage generation lifetime themselves can use MapShard.
func LoadShard(path string) (*IndexShard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: LoadShard: %w", err)
	}
	defer f.Close()
	sh, err := ReadShard(fault.Reader(fault.SiteIndexRead, f))
	if err != nil {
		return nil, fmt.Errorf("core: LoadShard %s: %w", path, err)
	}
	return sh, nil
}

// ShardDir returns the conventional snapshot directory of shard s under
// root: <root>/shard-<s>. Each shard gets its own snapshot directory so
// generations advance (and roll back) independently per shard — the unit
// of a rolling reload.
func ShardDir(root string, s int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%d", s))
}

// WriteShardSnapshot persists sh as the next generation in dir and
// repoints CURRENT at it — WriteSnapshot for a shard directory.
func WriteShardSnapshot(dir string, sh *IndexShard) (gen uint64, path string, err error) {
	gen, path, err = nextSnapshotPath(dir)
	if err != nil {
		return 0, "", err
	}
	if err := SaveShard(sh, path); err != nil {
		return 0, "", err
	}
	if err := SetCurrent(dir, gen); err != nil {
		return 0, "", err
	}
	return gen, path, nil
}

// RecoverShardSnapshot loads the best shard snapshot dir can still serve,
// with RecoverSnapshot's fallback ladder: CURRENT's target first, then
// remaining generations newest-first; recovered reports the returned
// snapshot is not the one CURRENT names.
func RecoverShardSnapshot(dir string) (sh *IndexShard, snap Snapshot, recovered bool, err error) {
	sweepStaleTemps(dir)
	var loadErr error
	skip := ""
	if p, g, cerr := CurrentSnapshot(dir); cerr == nil {
		sh, loadErr = LoadShard(p)
		if loadErr == nil {
			return sh, Snapshot{Gen: g, Path: p}, false, nil
		}
		skip = p
	} else if !os.IsNotExist(cerr) {
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
		sh, err := LoadShard(s.Path)
		if err != nil {
			loadErr = err
			continue
		}
		return sh, s, true, nil
	}
	if loadErr != nil {
		return nil, Snapshot{}, false, fmt.Errorf("core: %s: no loadable shard snapshot (last failure: %v): %w", dir, loadErr, ErrNoSnapshot)
	}
	return nil, Snapshot{}, false, fmt.Errorf("core: %s: %w", dir, ErrNoSnapshot)
}
