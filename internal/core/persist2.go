package core

// persist2.go implements the page-aligned snapshot layout a server can
// memory-map and serve from without decoding — reload latency becomes O(1)
// in index size, pages fault in lazily, and two generations mapped during a
// swap share the page cache instead of doubling RSS. It has two versions.
// v3 is the one written: it records how many rows the factor block stores
// and lists their ids, so the all-zero rows of a support-compacted index
// (shard.go) cost no bytes on disk, in the mapping or on the way to a
// worker. v2, which could only say "every row", is decode/map-only behind
// its golden files, like v1.
//
// One 4 KiB header page (offsets in the v2*/v3* constants below and in
// DESIGN.md §13), then page-aligned sections in a fixed order: sigma (CSRX
// only), ids (v3 only; empty when every row is stored), then the factor
// block — zscale, uscale, zqerr, uqerr, z, u — the same six sections under
// either header and version. Quantisation metadata sections are empty (len
// 0) for tiers that lack them: scales exist only for int8, the measured
// per-column dequantisation errors for both quantized tiers. Every
// non-empty section starts exactly at the next page boundary and its CRC
// covers the section plus its zero padding up to the following boundary, so
// every byte of the file outside the two CRC words is checksummed.
//
// Zero-copy rules: the float64/float32 factor views reinterpret mapped
// bytes, which requires native little-endian byte order and the 8-byte
// alignment the page-aligned offsets guarantee; anywhere that doesn't
// hold (or mmap itself is unavailable), loading transparently falls back
// to a copying decode of the same bytes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"csrplus/internal/dense"
	"csrplus/internal/fault"
)

const (
	indexVersion2 = 2 // decode/map-only
	indexVersion3 = 3 // what every writer emits

	// Geometry both versions share.
	v2Page      = 4096
	v2DescSize  = 24
	v2HeaderCRC = v2Page - 4

	// v2FactorSections is the factor block both kinds share; a CSRX file
	// puts its sigma section in front of it, and v3 its ids section.
	v2FactorSections = 6

	// v2: the section table follows the fixed words. v2WalSeqOff holds the
	// index's last-applied ingest-WAL sequence. It sits past the section
	// table (which ends at 64 + 7·24 = 232), inside the header CRC's
	// coverage; files written before the field existed have zeros there,
	// which reads back as walSeq 0 — exactly the "no WAL coverage" meaning.
	// Shards always write 0.
	v2TableOff  = 64
	v2WalSeqOff = 240

	// v3: an eighth section does not fit in front of byte 240, so the
	// stored-row count and the WAL sequence follow the fixed words and the
	// table moves behind them (8 entries end at 128 + 8·24 = 320).
	v3StoredOff = 64
	v3WalSeqOff = 72
	v3TableOff  = 128
)

// errMapUnsupported reports that a file could not be memory-mapped for
// an environmental (not data-corruption) reason: unsupported platform,
// big-endian host, a v1 file, mmap syscall failure, or an injected map
// fault. LoadIndex falls back to the decode path on it; real corruption
// never wears it.
var errMapUnsupported = errors.New("core: memory mapping unavailable")

// nativeLE reports whether this host stores multi-byte words little-
// endian — the precondition for reinterpreting mapped bytes as floats.
var nativeLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignPage(x uint64) uint64 { return (x + v2Page - 1) &^ (v2Page - 1) }

// v2section pairs a section's payload length with an encoder that can
// replay the exact bytes — once into the CRC, once into the file.
type v2section struct {
	length uint64
	encode func(io.Writer) error
}

// f64Section is a section of little-endian float64s. On a little-endian
// host that is the slice's own memory — what the mapper reinterprets on
// load — so both passes hand it over as it lies; elsewhere writeFloats
// encodes it, once per pass.
func f64Section(data []float64) v2section {
	if nativeLE && len(data) > 0 {
		raw := unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*8)
		return v2section{uint64(len(raw)), func(w io.Writer) error { return writeChunked(w, raw) }}
	}
	return v2section{uint64(len(data)) * 8, func(w io.Writer) error { return writeFloats(w, data) }}
}

// writeChunked writes raw in pieces the size writeFloats encodes at a time.
// Measured, not assumed: handed to a file in one write(2), or in 1 MiB ones,
// a 16 MB section stalled inside write for 0.3–6 s in 9 of 16 trials on the VM
// this is developed on (Linux 6.18, where ext4 backs a large write with
// large folios and those come from memory the host has not backed yet);
// 32 KiB writes of the same bytes — what writeFloats has always issued —
// stalled in none of 16 and cost 15 ms.
func writeChunked(w io.Writer, raw []byte) error {
	const chunk = 8 * 4096
	for len(raw) > 0 {
		n := min(chunk, len(raw))
		if _, err := w.Write(raw[:n]); err != nil {
			return err
		}
		raw = raw[n:]
	}
	return nil
}

func f32Section(data []float32) v2section {
	return v2section{uint64(len(data)) * 4, func(w io.Writer) error { return writeFloats32(w, data) }}
}

func i8Section(data []int8) v2section {
	return v2section{uint64(len(data)), func(w io.Writer) error { return writeInt8(w, data) }}
}

// i32Section is the ids section: little-endian int32s, the slice's own
// memory where that is what they are.
func i32Section(data []int32) v2section {
	if nativeLE && len(data) > 0 {
		raw := unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*4)
		return v2section{uint64(len(raw)), func(w io.Writer) error { return writeChunked(w, raw) }}
	}
	return v2section{uint64(len(data)) * 4, func(w io.Writer) error {
		return binary.Write(w, binary.LittleEndian, data)
	}}
}

var emptySection = v2section{0, func(io.Writer) error { return nil }}

// factorSections renders one factor matrix (and its quantisation
// metadata) as the scale/qerr/payload section triple. Sections a tier
// lacks are empty: scales exist only for int8, qerr for both quantized
// tiers.
func factorSections(t *dense.Typed, qerr []float64) (scale, qe, payload v2section) {
	switch t.Kind {
	case dense.F64:
		return emptySection, emptySection, f64Section(t.F64)
	case dense.F32:
		return emptySection, f64Section(qerr), f32Section(t.F32)
	default:
		return f64Section(t.Scale), f64Section(qerr), i8Section(t.I8)
	}
}

// WriteTo serialises the index in the v3 layout (magic "CSRX").
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	hdr := [5]uint64{uint64(ix.n), uint64(ix.rank), math.Float64bits(ix.c), uint64(ix.iters), 0}
	return ix.writeV3(w, indexKind, hdr, ix.walSeq, f64Section(ix.sigma))
}

// WriteTo serialises the shard in the v3 layout (magic "CSRS").
func (sh *IndexShard) WriteTo(w io.Writer) (int64, error) {
	hdr := [5]uint64{uint64(sh.n), uint64(sh.rank), math.Float64bits(sh.c), uint64(sh.lo), uint64(sh.hi)}
	return sh.writeV3(w, shardKind, hdr, 0)
}

// writeV3 is the one writer. It lays out and writes a v3 file of the
// shard's stored rows: header page, then the kind's leading sections, the
// ids and the six factor-block sections, each at the next page boundary
// and followed by zero padding. Section CRCs are computed in a first encode
// pass (over payload plus padding), so the writer streams — it never
// materialises a quantized payload in memory.
func (sh *IndexShard) writeV3(w io.Writer, k *snapKind, hdr [5]uint64, walSeq uint64, lead ...v2section) (int64, error) {
	le := binary.LittleEndian
	zscale, zqe, z := factorSections(sh.z, sh.zqerr)
	uscale, uqe, u := factorSections(sh.u, sh.uqerr)
	secs := append(lead, i32Section(sh.ids), zscale, uscale, zqe, uqe, z, u)

	// Pass 1: place sections and checksum their padded extents.
	type placed struct {
		off, padded uint64
		crc         uint32
	}
	pl := make([]placed, len(secs))
	cur := uint64(v2Page)
	for i, s := range secs {
		pl[i].off = cur
		pl[i].padded = alignPage(s.length)
		if s.length > 0 {
			h := crc32.NewIEEE()
			if err := s.encode(h); err != nil {
				return 0, fmt.Errorf("core: v3 checksum pass: %w", err)
			}
			if pad := pl[i].padded - s.length; pad > 0 {
				h.Write(make([]byte, pad))
			}
			pl[i].crc = h.Sum32()
		}
		cur += pl[i].padded
	}
	fileSize := cur

	head := make([]byte, v2Page)
	copy(head, k.magic[:])
	le.PutUint32(head[4:], indexVersion3)
	le.PutUint32(head[8:], uint32(sh.Tier()))
	le.PutUint32(head[12:], uint32(len(secs)))
	le.PutUint64(head[16:], hdr[0])
	le.PutUint64(head[24:], hdr[1])
	le.PutUint64(head[32:], hdr[2])
	le.PutUint64(head[40:], hdr[3])
	le.PutUint64(head[48:], hdr[4])
	le.PutUint64(head[56:], fileSize)
	le.PutUint64(head[v3StoredOff:], uint64(sh.Stored()))
	le.PutUint64(head[v3WalSeqOff:], walSeq)
	for i, s := range secs {
		d := head[v3TableOff+i*v2DescSize:]
		le.PutUint64(d, pl[i].off)
		le.PutUint64(d[8:], s.length)
		le.PutUint32(d[16:], pl[i].crc)
	}
	le.PutUint32(head[v2HeaderCRC:], crc32.ChecksumIEEE(head[:v2HeaderCRC]))

	// Pass 2: write. No bufio — sections already stream in large chunks,
	// and the padding writes batch through one zero page.
	cw := &countingWriter{w: w}
	if _, err := cw.Write(head); err != nil {
		return cw.n, fmt.Errorf("core: writing v3 header: %w", err)
	}
	zeros := make([]byte, v2Page)
	for i, s := range secs {
		if s.length == 0 {
			continue
		}
		if err := s.encode(cw); err != nil {
			return cw.n, fmt.Errorf("core: writing v3 section %d: %w", i, err)
		}
		for pad := pl[i].padded - s.length; pad > 0; {
			chunk := pad
			if chunk > v2Page {
				chunk = v2Page
			}
			if _, err := cw.Write(zeros[:chunk]); err != nil {
				return cw.n, fmt.Errorf("core: padding v3 section %d: %w", i, err)
			}
			pad -= chunk
		}
	}
	if uint64(cw.n) != fileSize {
		return cw.n, fmt.Errorf("core: v3 writer emitted %d bytes, laid out %d", cw.n, fileSize)
	}
	return cw.n, nil
}

// v2sec is one parsed section-table entry.
type v2sec struct {
	off, length uint64
	crc         uint32
}

func (s v2sec) end() uint64 { return alignPage(s.off + s.length) }

// pagedFile is a validated v2 or v3 header over its raw bytes.
type pagedFile struct {
	snapHeader
	tier   Tier
	stored uint64 // rows in the factor block: rows() in a v2 file
	secs   []v2sec
	data   []byte
}

// parsePaged validates everything cheap about a v2 or v3 byte image of kind
// k — magic, version, header CRC, fileSize against the actual length,
// field plausibility, and the full section-table geometry (alignment, no
// overlap with the header or each other, exact expected lengths) — and
// eagerly CRC-checks every section except the two factor blocks, whose
// verification cost is O(index size) and is the caller's choice.
func parsePaged(data []byte, k *snapKind) (*pagedFile, error) {
	le := binary.LittleEndian
	if len(data) < v2Page {
		return nil, fmt.Errorf("core: snapshot header truncated at %d bytes: %w", len(data), ErrCorrupt)
	}
	if !bytes.Equal(data[:4], k.magic[:]) {
		return nil, fmt.Errorf("core: bad %s magic %q: %w", k.name, data[:4], ErrCorrupt)
	}
	version := le.Uint32(data[4:])
	v3 := version == indexVersion3
	tableOff, walSeqOff := v3TableOff, v3WalSeqOff
	if !v3 {
		if version != indexVersion2 {
			return nil, fmt.Errorf("core: %s version %d, want %d or %d: %w", k.name, version, indexVersion2, indexVersion3, ErrCorrupt)
		}
		tableOff, walSeqOff = v2TableOff, v2WalSeqOff
	}
	if got, want := crc32.ChecksumIEEE(data[:v2HeaderCRC]), le.Uint32(data[v2HeaderCRC:]); got != want {
		return nil, fmt.Errorf("core: snapshot header checksum %08x, want %08x: %w", got, want, ErrCorrupt)
	}
	f := &pagedFile{data: data}
	f.n = le.Uint64(data[16:])
	f.rank = le.Uint64(data[24:])
	f.c = math.Float64frombits(le.Uint64(data[32:]))
	f.walSeq = le.Uint64(data[walSeqOff:])
	// Words 4 and 5 are iters/0 for an index, lo/hi for a shard.
	w4, w5 := le.Uint64(data[40:]), le.Uint64(data[48:])
	if k.whole {
		if w5 != 0 {
			return nil, fmt.Errorf("core: %s reserved word %d: %w", k.name, w5, ErrCorrupt)
		}
		f.iters, f.hi = w4, f.n
	} else {
		f.lo, f.hi = w4, w5
	}
	tier := le.Uint32(data[8:])
	if tier > uint32(TierI8) {
		return nil, fmt.Errorf("core: unknown tier %d: %w", tier, ErrCorrupt)
	}
	f.tier = Tier(tier)
	wantSecs := v2FactorSections
	if k.whole {
		wantSecs++ // sigma
	}
	if v3 {
		wantSecs++ // ids
	}
	if got := le.Uint32(data[12:]); got != uint32(wantSecs) {
		return nil, fmt.Errorf("core: snapshot section count %d, want %d: %w", got, wantSecs, ErrCorrupt)
	}
	if size := le.Uint64(data[56:]); size != uint64(len(data)) {
		return nil, fmt.Errorf("core: snapshot file is %d bytes, header says %d: %w", len(data), size, ErrCorrupt)
	}
	if err := f.validate(k); err != nil {
		return nil, err
	}
	// The header is plausible, so rows() is a real row count; a v3 file may
	// store fewer, never more.
	f.stored = uint64(f.rows())
	if v3 {
		if f.stored = le.Uint64(data[v3StoredOff:]); f.stored > uint64(f.rows()) {
			return nil, fmt.Errorf("core: %s stores %d rows of the %d in [%d, %d): %w", k.name, f.stored, f.rows(), f.lo, f.hi, ErrCorrupt)
		}
	}

	// Expected section lengths from the validated header. Order matches
	// the writer: [sigma,] [ids,] zscale, uscale, zqerr, uqerr, z, u.
	factorLen := f.stored * f.rank * uint64(f.tier.kind().ElemSize())
	metaLen := uint64(0) // scale/qerr vectors are rank float64s when present
	if f.tier != TierF64 {
		metaLen = f.rank * 8
	}
	scaleLen := uint64(0)
	if f.tier == TierI8 {
		scaleLen = f.rank * 8
	}
	want := make([]uint64, 0, wantSecs)
	if k.whole {
		want = append(want, f.rank*8) // sigma
	}
	if v3 {
		idsLen := uint64(0) // every row stored: the identity map, not listed
		if f.stored < uint64(f.rows()) {
			idsLen = f.stored * 4
		}
		want = append(want, idsLen)
	}
	want = append(want, scaleLen, scaleLen, metaLen, metaLen, factorLen, factorLen)

	f.secs = make([]v2sec, wantSecs)
	cur := uint64(v2Page)
	for i := range f.secs {
		d := data[tableOff+i*v2DescSize:]
		s := v2sec{off: le.Uint64(d), length: le.Uint64(d[8:]), crc: le.Uint32(d[16:])}
		if s.length != want[i] {
			return nil, fmt.Errorf("core: snapshot section %d is %d bytes, want %d: %w", i, s.length, want[i], ErrCorrupt)
		}
		// Sections sit exactly where the writer puts them: next page
		// boundary, after the header, in order. Anything else — a
		// misaligned offset, an offset pointing back into the header or
		// a neighbour — is a forgery.
		if s.off != cur || s.off%v2Page != 0 || s.off < v2Page || s.end() > uint64(len(data)) {
			return nil, fmt.Errorf("core: snapshot section %d at offset %d, want %d: %w", i, s.off, cur, ErrCorrupt)
		}
		cur = s.end()
		f.secs[i] = s
	}
	if cur != uint64(len(data)) {
		return nil, fmt.Errorf("core: snapshot sections end at %d of %d bytes: %w", cur, len(data), ErrCorrupt)
	}

	// Eagerly verify everything except the two trailing factor blocks.
	for i := 0; i < len(f.secs)-2; i++ {
		if err := f.verifySection(i); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *pagedFile) verifySection(i int) error {
	s := f.secs[i]
	if s.length == 0 {
		if s.crc != 0 {
			return fmt.Errorf("core: snapshot empty section %d has checksum %08x: %w", i, s.crc, ErrCorrupt)
		}
		return nil
	}
	if got := crc32.ChecksumIEEE(f.data[s.off:s.end()]); got != s.crc {
		return fmt.Errorf("core: snapshot section %d checksum %08x, want %08x: %w", i, got, s.crc, ErrCorrupt)
	}
	return nil
}

// verifyFactors checks the two factor-block CRCs — the O(size) half of
// validation.
func (f *pagedFile) verifyFactors() error {
	if err := fault.Hit(fault.SiteIndexVerify); err != nil {
		return fmt.Errorf("core: verifying factor blocks: %w", err)
	}
	for i := len(f.secs) - 2; i < len(f.secs); i++ {
		if err := f.verifySection(i); err != nil {
			return err
		}
	}
	return nil
}

// bytesOf returns section i's payload bytes.
func (f *pagedFile) bytesOf(i int) []byte {
	s := f.secs[i]
	return f.data[s.off : s.off+s.length]
}

// f64Of materialises section i as []float64 — a zero-copy reinterpret
// of the mapping when zeroCopy (page alignment gives the required
// 8-byte alignment; parsePaged's callers only pass zeroCopy on
// little-endian hosts), a decoded copy otherwise. nil for empty.
func (f *pagedFile) f64Of(i int, zeroCopy bool) []float64 {
	b := f.bytesOf(i)
	if len(b) == 0 {
		return nil
	}
	if zeroCopy {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	le := binary.LittleEndian
	out := make([]float64, len(b)/8)
	for j := range out {
		out[j] = math.Float64frombits(le.Uint64(b[j*8:]))
	}
	return out
}

func (f *pagedFile) f32Of(i int, zeroCopy bool) []float32 {
	b := f.bytesOf(i)
	if len(b) == 0 {
		return nil
	}
	if zeroCopy {
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	le := binary.LittleEndian
	out := make([]float32, len(b)/4)
	for j := range out {
		out[j] = math.Float32frombits(le.Uint32(b[j*4:]))
	}
	return out
}

// i32Of is f64Of for the ids section. An empty section is nil: the
// identity map.
func (f *pagedFile) i32Of(i int, zeroCopy bool) []int32 {
	b := f.bytesOf(i)
	if len(b) == 0 {
		return nil
	}
	if zeroCopy {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	le := binary.LittleEndian
	out := make([]int32, len(b)/4)
	for j := range out {
		out[j] = int32(le.Uint32(b[j*4:]))
	}
	return out
}

// i8Of is always zero-copy capable: bytes have no endianness.
func (f *pagedFile) i8Of(i int, zeroCopy bool) []int8 {
	b := f.bytesOf(i)
	if len(b) == 0 {
		return nil
	}
	if zeroCopy {
		return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), len(b))
	}
	out := make([]int8, len(b))
	for j, v := range b {
		out[j] = int8(v)
	}
	return out
}

// checkQuantVec validates a persisted scale or qerr vector: the bound
// arithmetic assumes finite, non-negative entries, and NaN here would
// poison every reported error_bound while passing the CRC.
func checkQuantVec(name string, v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("core: non-finite or negative %s[%d]=%v: %w", name, i, x, ErrCorrupt)
		}
	}
	return nil
}

// factorsFrom materialises one factor matrix and its measured
// dequantisation errors from its scale/qerr/payload sections (already
// shape-validated). The payload is wrapped, never copied: f64Of and its
// siblings already return either the mmap view (zeroCopy) or a fresh
// decode, and copying here would put every factor entry back on the heap
// — the exact cost mapping exists to avoid. The view is PROT_READ; queries
// only read.
func (f *pagedFile) factorsFrom(rows int, scaleIdx, qerrIdx, payloadIdx int, zeroCopy bool) (t *dense.Typed, qerr []float64, err error) {
	t = &dense.Typed{Kind: f.tier.kind(), Rows: rows, Cols: int(f.rank)}
	switch f.tier {
	case TierF64:
		t.F64 = f.f64Of(payloadIdx, zeroCopy)
		return t, nil, nil
	case TierF32:
		t.F32 = f.f32Of(payloadIdx, zeroCopy)
	default:
		t.I8 = f.i8Of(payloadIdx, zeroCopy)
		t.Scale = f.f64Of(scaleIdx, zeroCopy)
		if err := checkQuantVec("scale", t.Scale); err != nil {
			return nil, nil, err
		}
	}
	qerr = f.f64Of(qerrIdx, zeroCopy)
	if err := checkQuantVec("qerr", qerr); err != nil {
		return nil, nil, err
	}
	return t, qerr, nil
}

// fromImage builds the Index (for a shard image, the IndexShard inside it)
// over a parsed image — the one from-image constructor, shared by the
// decoder (zeroCopy false: fresh allocations) and the mapper.
func (f *pagedFile) fromImage(k *snapKind, zeroCopy bool) (*Index, error) {
	base := len(f.secs) - v2FactorSections // sigma and ids lead, where present
	var sigma []float64
	if k.whole {
		sigma = f.f64Of(0, zeroCopy)
		if err := checkSigma(sigma); err != nil {
			return nil, err
		}
	}
	ix := f.index(sigma)
	if f.stored < uint64(f.rows()) {
		if ix.ids = f.i32Of(base-1, zeroCopy); ix.ids == nil {
			ix.ids = []int32{} // a shard that stores nothing still lists its rows: none
		}
	}
	var err error
	if ix.z, ix.zqerr, err = f.factorsFrom(int(f.stored), base, base+2, base+4, zeroCopy); err != nil {
		return nil, err
	}
	if ix.u, ix.uqerr, err = f.factorsFrom(int(f.stored), base+1, base+3, base+5, zeroCopy); err != nil {
		return nil, err
	}
	if err := ix.CheckStored(); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
	return ix, nil
}

// decodePaged is the copying read of a v2 or v3 byte image: full
// validation including the factor CRCs, fresh allocations, no mapping to
// manage.
func decodePaged(data []byte, k *snapKind) (*Index, error) {
	f, err := parsePaged(data, k)
	if err != nil {
		return nil, err
	}
	if err := f.verifyFactors(); err != nil {
		return nil, err
	}
	return f.fromImage(k, false)
}

// mapFile opens, sizes and maps path read-only, peeking the version
// first so a v1 file reports errMapUnsupported (fall back to decode)
// rather than a parse failure. The returned mapping owns the pages;
// the file descriptor does not outlive the call.
func mapFile(path string) ([]byte, *mapping, error) {
	if !mmapSupported || !nativeLE {
		return nil, nil, fmt.Errorf("%w (platform)", errMapUnsupported)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	// The version peek goes through the injected read site like every
	// other load-time disk read: a degraded disk (or an armed
	// SiteIndexRead plan) fails the mapped load the same way it fails
	// the buffered one — the decode fallback shares the disk, so
	// degrading to it could not help.
	var head [8]byte
	if _, err := io.ReadFull(fault.Reader(fault.SiteIndexRead, f), head[:]); err != nil {
		return nil, nil, fmt.Errorf("core: reading header: %w", corruptEOF(err))
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != indexVersion2 && v != indexVersion3 {
		return nil, nil, fmt.Errorf("%w (version %d file)", errMapUnsupported, v)
	}
	fi, err := f.Stat()
	if err != nil {
		// Environmental, not corruption — degrade to the buffered decode
		// like every other unmappable condition in this function.
		return nil, nil, fmt.Errorf("%w (stat: %v)", errMapUnsupported, err)
	}
	if fi.Size() <= 0 || uint64(fi.Size()) > maxPlatformElems {
		return nil, nil, fmt.Errorf("%w (size %d)", errMapUnsupported, fi.Size())
	}
	// An injected map fault models mmap refusal (ulimit, fragmentation):
	// an environmental failure, so it degrades to the decode path rather
	// than failing the load.
	if err := fault.Hit(fault.SiteIndexMap); err != nil {
		return nil, nil, fmt.Errorf("%w (injected: %v)", errMapUnsupported, err)
	}
	data, err := mmapFile(f, fi.Size())
	if err != nil {
		return nil, nil, fmt.Errorf("%w (mmap: %v)", errMapUnsupported, err)
	}
	return data, &mapping{data: data}, nil
}

// MapIndex memory-maps a v2 or v3 snapshot and returns an Index whose factor
// matrices are zero-copy views over the mapping: the load copies nothing
// (header and metadata validation plus one CRC pass over the factor
// blocks), pages fault in on first access, and RSS is shared with any
// other mapping of the same generation. The caller owns the mapping
// lifetime: Close the index only after every query that might touch it
// has drained (the serve layer's swap guarantees exactly this — see
// DESIGN.md). Returns errMapUnsupported-wrapped errors for v1 files and
// unmappable environments, ErrCorrupt-wrapped for bad bytes.
func MapIndex(path string) (*Index, error) {
	ix, err := mapSnapshot(path, indexKind)
	if err != nil {
		return nil, fmt.Errorf("core: MapIndex %s: %w", path, err)
	}
	return ix, nil
}

// mapSnapshot is the one mapper, for files of either kind: map, parse,
// verify every factor CRC, build zero-copy views. The returned Index holds
// the mapping; for a shard file the caller hands it on as a ShardFile.
func mapSnapshot(path string, k *snapKind) (*Index, error) {
	data, m, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	f, err := parsePaged(data, k)
	if err == nil {
		err = f.verifyFactors()
	}
	var ix *Index
	if err == nil {
		ix, err = f.fromImage(k, true)
	}
	if err != nil {
		m.close()
		return nil, err
	}
	ix.mapped = m
	return ix, nil
}

func writeFloats32(w io.Writer, data []float32) error {
	buf := make([]byte, 4*4096)
	le := binary.LittleEndian
	for len(data) > 0 {
		chunk := len(data)
		if chunk > 4096 {
			chunk = 4096
		}
		for i := 0; i < chunk; i++ {
			le.PutUint32(buf[i*4:], math.Float32bits(data[i]))
		}
		if _, err := w.Write(buf[:chunk*4]); err != nil {
			return err
		}
		data = data[chunk:]
	}
	return nil
}

func writeInt8(w io.Writer, data []int8) error {
	buf := make([]byte, 32768)
	for len(data) > 0 {
		chunk := len(data)
		if chunk > len(buf) {
			chunk = len(buf)
		}
		for i := 0; i < chunk; i++ {
			buf[i] = byte(data[i])
		}
		if _, err := w.Write(buf[:chunk]); err != nil {
			return err
		}
		data = data[chunk:]
	}
	return nil
}
