package core

// persist2.go implements the page-aligned snapshot layout a server can
// memory-map and serve from without decoding — reload latency becomes O(1)
// in index size, pages fault in lazily, and two generations mapped during a
// swap share the page cache instead of doubling RSS. v5 is the one format
// written and served: it holds the one factor F (csrplus.go), records how
// many rows it stores and lists their ids, so the all-zero rows of a
// support-compacted index (shard.go) cost no bytes on disk, in the mapping
// or on the way to a worker, and it carries the graph the factor was built
// from (graphsec.go). v1–v4 are refused as stale (ErrFormat) and are
// rebuilt from the graph.
//
// One 4 KiB header page (offsets in the constants below and in DESIGN.md
// §13), then page-aligned sections in a fixed order: sigma (CSRX only),
// ids (empty when every row is stored), the factor block — fscale, fqerr,
// f — and the graph (empty in a CSRS file). Quantisation metadata
// sections are empty (len 0) for tiers that lack them: scales exist only
// for int8, the measured per-column dequantisation errors for both
// quantized tiers. Every non-empty section starts exactly at the next page
// boundary and its CRC covers the section plus its zero padding up to the
// following boundary, so every byte of the file outside the two CRC words
// is checksummed.
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
	indexVersion = 5 // what every writer emits and every loader serves

	// factorSecs is the factor block after the ids: the scale, qerr and
	// payload sections of F, in that order.
	factorSecs = 3

	pageSize     = 4096
	descSize     = 24
	headerCRCOff = pageSize - 4

	// Words past the fixed ones (magic, version, tier, section count, n,
	// rank, c, iters|lo, 0|hi and the file size fill bytes 0–63); the
	// section table follows at 128.
	storedOff   = 64
	walSeqOff   = 72
	buildOff    = 80
	clampOff    = 88
	edgesOff    = 96  // m, the graph section's edge count (0 in a CSRS file)
	weightedOff = 104 // 1 when the graph section stores weights
	tableOff    = 128
)

// ErrFormat is returned (wrapped) for a snapshot in a format this build does
// not serve: v1–v4. It is not corruption — the bytes may be intact — so a
// snapshot directory treats such a generation as stale rather than damaged
// (snapshot.go). A stale index is rebuilt from its graph, and a shard
// directory is published again from a v5 index.
var ErrFormat = errors.New("core: snapshot format not served")

// errMapUnsupported reports that a file could not be memory-mapped for
// an environmental (not data-corruption) reason: unsupported platform,
// big-endian host, mmap syscall failure, or an injected map fault.
// LoadIndex falls back to the decode path on it; real corruption never
// wears it.
var errMapUnsupported = errors.New("core: memory mapping unavailable")

// nativeLE reports whether this host stores multi-byte words little-
// endian — the precondition for reinterpreting mapped bytes as floats.
var nativeLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignPage(x uint64) uint64 { return (x + pageSize - 1) &^ (pageSize - 1) }

// section pairs a section's payload length with an encoder that can
// replay the exact bytes — once into the CRC, once into the file.
type section struct {
	length uint64
	encode func(io.Writer) error
}

// writeChunk is the size of every write a section makes. Measured, not
// assumed: handed to a file in one write(2), or in 1 MiB ones, a 16 MB
// section stalled inside write for 0.3–6 s in 9 of 16 trials on a 2-vCPU
// KVM guest (Linux 6.18, where ext4 backs a large write with large folios
// and those come from memory the host has not backed yet); 32 KiB writes
// of the same bytes stalled in none of 16 and cost 15 ms.
const writeChunk = 32 << 10

// sectionOf is a section of little-endian elements, size bytes each. On a
// little-endian host that is the slice's own memory — what the mapper
// reinterprets on load — so both passes hand it over as it lies; elsewhere
// put encodes one element, a chunk at a time, once per pass.
func sectionOf[T any](data []T, size int, put func([]byte, T)) section {
	if nativeLE && len(data) > 0 {
		raw := unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*size)
		return section{uint64(len(raw)), func(w io.Writer) error {
			for rest := raw; len(rest) > 0; rest = rest[min(writeChunk, len(rest)):] {
				if _, err := w.Write(rest[:min(writeChunk, len(rest))]); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	return section{uint64(len(data) * size), func(w io.Writer) error {
		buf := make([]byte, writeChunk)
		for rest := data; len(rest) > 0; rest = rest[min(writeChunk/size, len(rest)):] {
			chunk := rest[:min(writeChunk/size, len(rest))]
			for i, v := range chunk {
				put(buf[i*size:], v)
			}
			if _, err := w.Write(buf[:len(chunk)*size]); err != nil {
				return err
			}
		}
		return nil
	}}
}

func f64Section(data []float64) section {
	return sectionOf(data, 8, func(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) })
}

var emptySection = section{0, func(io.Writer) error { return nil }}

// factorSections renders the factor (and its quantisation metadata) as the
// scale/qerr/payload section triple. Sections a tier lacks are empty:
// scales exist only for int8, qerr for both quantized tiers.
func factorSections(t *dense.Typed, qerr []float64) (scale, qe, payload section) {
	switch t.Kind {
	case dense.F64:
		return emptySection, emptySection, f64Section(t.F64)
	case dense.F32:
		return emptySection, f64Section(qerr), sectionOf(t.F32, 4, func(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) })
	default:
		return f64Section(t.Scale), f64Section(qerr), sectionOf(t.I8, 1, func(b []byte, v int8) { b[0] = byte(v) })
	}
}

// WriteTo serialises the index in the v5 layout (magic "CSRX"), with the
// graph it carries: an index that carries none (one assembled by hand) has
// nothing a v5 file can hold and is refused.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	if ix.graph.none() {
		return 0, fmt.Errorf("core: the index carries no graph for its snapshot's graph section: %w", ErrParams)
	}
	hdr := [5]uint64{uint64(ix.n), uint64(ix.rank), math.Float64bits(ix.c), uint64(ix.iters), 0}
	return ix.write(w, indexKind, hdr, ix.walSeq, &ix.graph, f64Section(ix.sigma))
}

// WriteTo serialises the shard in the v5 layout (magic "CSRS"), whose
// graph section is empty.
func (sh *IndexShard) WriteTo(w io.Writer) (int64, error) {
	hdr := [5]uint64{uint64(sh.n), uint64(sh.rank), math.Float64bits(sh.c), uint64(sh.lo), uint64(sh.hi)}
	return sh.write(w, shardKind, hdr, 0, nil)
}

// write is the one writer. It lays out and writes a v5 file of the shard's
// stored rows: header page, then the kind's leading sections, the ids, the
// three factor-block sections and the graph g (nil: empty), each at the
// next page boundary and followed by zero padding. Section CRCs are
// computed in a first encode pass (over payload plus padding), so the
// writer streams — it never materialises a quantized payload in memory.
func (sh *IndexShard) write(w io.Writer, k *snapKind, hdr [5]uint64, walSeq uint64, g *carriedGraph, lead ...section) (int64, error) {
	le := binary.LittleEndian
	scale, qe, f := factorSections(sh.f, sh.fqerr)
	graph, edges, weighted := emptySection, uint64(0), uint64(0)
	if g != nil {
		graph, edges = g.section(), uint64(g.m)
		if g.weighted {
			weighted = 1
		}
	}
	secs := append(lead, i32Section(sh.ids), scale, qe, f, graph)

	// Pass 1: place sections and checksum their padded extents.
	type placed struct {
		off, padded uint64
		crc         uint32
	}
	pl := make([]placed, len(secs))
	cur := uint64(pageSize)
	for i, s := range secs {
		pl[i].off = cur
		pl[i].padded = alignPage(s.length)
		if s.length > 0 {
			h := crc32.NewIEEE()
			if err := s.encode(h); err != nil {
				return 0, fmt.Errorf("core: v5 checksum pass: %w", err)
			}
			if pad := pl[i].padded - s.length; pad > 0 {
				h.Write(make([]byte, pad))
			}
			pl[i].crc = h.Sum32()
		}
		cur += pl[i].padded
	}
	fileSize := cur

	head := make([]byte, pageSize)
	copy(head, k.magic[:])
	le.PutUint32(head[4:], indexVersion)
	le.PutUint32(head[8:], uint32(sh.Tier()))
	le.PutUint32(head[12:], uint32(len(secs)))
	for i, word := range append(hdr[:], fileSize, uint64(sh.Stored()), walSeq, sh.build, math.Float64bits(sh.clamp), edges, weighted) {
		le.PutUint64(head[16+8*i:], word)
	}
	for i, s := range secs {
		d := head[tableOff+i*descSize:]
		le.PutUint64(d, pl[i].off)
		le.PutUint64(d[8:], s.length)
		le.PutUint32(d[16:], pl[i].crc)
	}
	le.PutUint32(head[headerCRCOff:], crc32.ChecksumIEEE(head[:headerCRCOff]))

	// Pass 2: write. No bufio — sections already stream in large chunks,
	// and the padding writes batch through one zero page.
	cw := &countingWriter{w: w}
	if _, err := cw.Write(head); err != nil {
		return cw.n, fmt.Errorf("core: writing v5 header: %w", err)
	}
	zeros := make([]byte, pageSize)
	for i, s := range secs {
		if s.length == 0 {
			continue
		}
		if err := s.encode(cw); err != nil {
			return cw.n, fmt.Errorf("core: writing v5 section %d: %w", i, err)
		}
		for pad := pl[i].padded - s.length; pad > 0; {
			chunk := min(pad, pageSize)
			if _, err := cw.Write(zeros[:chunk]); err != nil {
				return cw.n, fmt.Errorf("core: padding v5 section %d: %w", i, err)
			}
			pad -= chunk
		}
	}
	if uint64(cw.n) != fileSize {
		return cw.n, fmt.Errorf("core: v5 writer emitted %d bytes, laid out %d", cw.n, fileSize)
	}
	return cw.n, nil
}

// sectionDesc is one parsed section-table entry.
type sectionDesc struct {
	off, length uint64
	crc         uint32
}

func (s sectionDesc) end() uint64 { return alignPage(s.off + s.length) }

// pagedFile is a validated header over its raw bytes.
type pagedFile struct {
	snapHeader
	kind   *snapKind
	tier   dense.Kind
	stored uint64 // rows in the factor block
	secs   []sectionDesc
	data   []byte
}

// The sections of a file, in order: [sigma,] ids, the factor block —
// scale, qerr, payload — and the graph. ids is section 1 of an index
// (behind sigma) and 0 of a shard.
func (f *pagedFile) idsAt() int {
	if f.kind.whole {
		return 1
	}
	return 0
}
func (f *pagedFile) payloadAt() int { return f.idsAt() + factorSecs }
func (f *pagedFile) graphAt() int   { return f.payloadAt() + 1 }

// checkHead reads the magic and version a snapshot image starts with:
// ErrCorrupt for a short image, the other kind's magic or a version no
// writer produced, ErrFormat for a version this build does not serve.
func checkHead(data []byte, k *snapKind) error {
	if len(data) < 8 {
		return fmt.Errorf("core: snapshot header truncated at %d bytes: %w", len(data), ErrCorrupt)
	}
	if !bytes.Equal(data[:4], k.magic[:]) {
		return fmt.Errorf("core: bad %s magic %q: %w", k.name, data[:4], ErrCorrupt)
	}
	switch v := binary.LittleEndian.Uint32(data[4:]); {
	case v == indexVersion:
		return nil
	case v >= 1 && v < indexVersion:
		return fmt.Errorf("core: v%d %s file is stale, and this build serves v5: %s: %w", v, k.name, k.stale, ErrFormat)
	default:
		return fmt.Errorf("core: %s version %d, want %d: %w", k.name, v, indexVersion, ErrCorrupt)
	}
}

// parsePaged validates everything cheap about a byte image of kind k —
// magic, version, header CRC, fileSize against the file's size, field
// plausibility, and the full section-table geometry (alignment, no overlap
// with the header or each other, exact expected lengths) — and eagerly
// CRC-checks every section but two: the factor payload, whose verification
// cost is O(index size) and is the caller's choice, and the graph, which is
// never read through a mapping (see openPaged). data is the file's first
// bytes: all size of them, or — a mapping — all but the graph section,
// which ends the file.
func parsePaged(data []byte, size uint64, k *snapKind) (*pagedFile, error) {
	le := binary.LittleEndian
	if err := checkHead(data, k); err != nil {
		return nil, err
	}
	if len(data) < pageSize {
		return nil, fmt.Errorf("core: snapshot header truncated at %d bytes: %w", len(data), ErrCorrupt)
	}
	if got, want := crc32.ChecksumIEEE(data[:headerCRCOff]), le.Uint32(data[headerCRCOff:]); got != want {
		return nil, fmt.Errorf("core: snapshot header checksum %08x, want %08x: %w", got, want, ErrCorrupt)
	}
	f := &pagedFile{kind: k, data: data}
	f.n = le.Uint64(data[16:])
	f.rank = le.Uint64(data[24:])
	f.c = math.Float64frombits(le.Uint64(data[32:]))
	f.walSeq = le.Uint64(data[walSeqOff:])
	f.build = le.Uint64(data[buildOff:])
	f.clamp = math.Float64frombits(le.Uint64(data[clampOff:]))
	f.m = le.Uint64(data[edgesOff:])
	weighted := le.Uint64(data[weightedOff:])
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
	if tier > uint32(dense.I8) {
		return nil, fmt.Errorf("core: unknown tier %d: %w", tier, ErrCorrupt)
	}
	f.tier = dense.Kind(tier)
	wantSecs := 1 + factorSecs + 1 // ids, the factor block, the graph
	if k.whole {
		wantSecs++ // sigma
	}
	if got := le.Uint32(data[12:]); got != uint32(wantSecs) {
		return nil, fmt.Errorf("core: snapshot section count %d, want %d: %w", got, wantSecs, ErrCorrupt)
	}
	if words := le.Uint64(data[56:]); words != size {
		return nil, fmt.Errorf("core: snapshot file is %d bytes, header says %d: %w", size, words, ErrCorrupt)
	}
	// The graph words: a shard carries no graph, an index's offsets are
	// int32 and the weight flag is a flag.
	switch {
	case weighted > 1:
		return nil, fmt.Errorf("core: %s graph weight flag %d: %w", k.name, weighted, ErrCorrupt)
	case !k.whole && (f.m != 0 || weighted != 0):
		return nil, fmt.Errorf("core: shard carries a graph of %d edges: %w", f.m, ErrCorrupt)
	case f.m > math.MaxInt32:
		return nil, fmt.Errorf("core: graph of %d edges, past int32 offsets: %w", f.m, ErrCorrupt)
	}
	f.weighted = weighted == 1
	if err := f.validate(k); err != nil {
		return nil, err
	}
	// The header is plausible, so rows() is a real row count; a file may
	// store fewer, never more.
	if f.stored = le.Uint64(data[storedOff:]); f.stored > uint64(f.rows()) {
		return nil, fmt.Errorf("core: %s stores %d rows of the %d in [%d, %d): %w", k.name, f.stored, f.rows(), f.lo, f.hi, ErrCorrupt)
	}

	// Expected section lengths from the validated header. Order matches
	// the writer: [sigma,] ids, the factor block, the graph.
	want := make([]uint64, 0, wantSecs)
	if k.whole {
		want = append(want, f.rank*8) // sigma
	}
	idsLen := uint64(0) // every row stored: the identity map, not listed
	if f.stored < uint64(f.rows()) {
		idsLen = f.stored * 4
	}
	want = append(want, idsLen)
	factorLen := f.stored * f.rank * uint64(f.tier.ElemSize())
	metaLen := uint64(0) // scale/qerr vectors are rank float64s when present
	if f.tier != dense.F64 {
		metaLen = f.rank * 8
	}
	scaleLen := uint64(0)
	if f.tier == dense.I8 {
		scaleLen = f.rank * 8
	}
	graphLen := uint64(0)
	if k.whole {
		graphLen = graphSectionLen(f.n, f.m, f.weighted)
	}
	want = append(want, scaleLen, metaLen, factorLen, graphLen)

	f.secs = make([]sectionDesc, wantSecs)
	cur := uint64(pageSize)
	for i := range f.secs {
		d := data[tableOff+i*descSize:]
		s := sectionDesc{off: le.Uint64(d), length: le.Uint64(d[8:]), crc: le.Uint32(d[16:])}
		if s.length != want[i] {
			return nil, fmt.Errorf("core: snapshot section %d is %d bytes, want %d: %w", i, s.length, want[i], ErrCorrupt)
		}
		// Sections sit exactly where the writer puts them: next page
		// boundary, after the header, in order. Anything else — a
		// misaligned offset, an offset pointing back into the header or
		// a neighbour — is a forgery. Every one but the graph lies in data.
		if s.off != cur || s.off%pageSize != 0 || s.off < pageSize || s.end() > size || (i != f.graphAt() && s.end() > uint64(len(data))) {
			return nil, fmt.Errorf("core: snapshot section %d at offset %d, want %d: %w", i, s.off, cur, ErrCorrupt)
		}
		cur = s.end()
		f.secs[i] = s
	}
	if cur != size {
		return nil, fmt.Errorf("core: snapshot sections end at %d of %d bytes: %w", cur, size, ErrCorrupt)
	}

	// Eagerly verify everything except the factor payload and the graph.
	for i := range f.secs {
		if i == f.payloadAt() || (i == f.graphAt() && f.secs[i].length > 0) {
			continue
		}
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

// verifyFactor checks the factor payload CRC — the O(size) half of
// validation.
func (f *pagedFile) verifyFactor() error {
	if err := fault.Hit(fault.SiteIndexVerify); err != nil {
		return fmt.Errorf("core: verifying the factor block: %w", err)
	}
	return f.verifySection(f.payloadAt())
}

// viewOf materialises section i as size-byte little-endian elements — a
// zero-copy reinterpret of the mapping when zeroCopy (page alignment gives
// every element its alignment; parsePaged's callers only pass zeroCopy on
// little-endian hosts), a copy decoded by get otherwise. nil for empty.
func viewOf[T any](f *pagedFile, i int, zeroCopy bool, size int, get func([]byte) T) []T {
	s := f.secs[i]
	b := f.data[s.off : s.off+s.length]
	if len(b) == 0 {
		return nil
	}
	if zeroCopy {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size)
	}
	out := make([]T, len(b)/size)
	for j := range out {
		out[j] = get(b[j*size:])
	}
	return out
}

func (f *pagedFile) f64Of(i int, zeroCopy bool) []float64 {
	return viewOf(f, i, zeroCopy, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
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

// factorFrom materialises the factor and its measured dequantisation
// errors from the factor block (already shape-validated).
// The payload is wrapped, never copied: f64Of and its siblings already
// return either the mmap view (zeroCopy) or a fresh decode, and copying here
// would put every factor entry back on the heap — the exact cost mapping
// exists to avoid. The view is PROT_READ; queries only read.
func (f *pagedFile) factorFrom(zeroCopy bool) (t *dense.Typed, qerr []float64, err error) {
	scaleIdx := f.idsAt() + 1
	qerrIdx, payloadIdx := scaleIdx+1, scaleIdx+2
	t = &dense.Typed{Kind: f.tier, Rows: int(f.stored), Cols: int(f.rank)}
	switch f.tier {
	case dense.F64:
		t.F64 = f.f64Of(payloadIdx, zeroCopy)
		return t, nil, nil
	case dense.F32:
		t.F32 = viewOf(f, payloadIdx, zeroCopy, 4, func(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) })
	default:
		t.I8 = viewOf(f, payloadIdx, zeroCopy, 1, func(b []byte) int8 { return int8(b[0]) })
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

// openPaged is the one open of a parsed file, shared by the decoder and
// the mapper: verify the factor CRC, build the index over the
// image — views of it when zeroCopy, fresh copies otherwise — and check the
// graph section, which the index then carries. For a shard image the Index
// is the IndexShard inside it.
//
// The graph section is read through graphAt, never through data: a mapper
// passes the file it mapped, so the pass that checksums the section and
// binds it to the factor (carriedGraph.check) reads it with pread and no
// page of it is faulted into the mapping. graphAt nil reads it out of
// data, a heap image.
func openPaged(f *pagedFile, zeroCopy bool, graphAt io.ReaderAt) (*Index, error) {
	if err := f.verifyFactor(); err != nil {
		return nil, err
	}
	var sigma []float64
	if f.kind.whole {
		sigma = f.f64Of(0, zeroCopy)
		if err := checkSigma(sigma); err != nil {
			return nil, err
		}
	}
	ix := f.index(sigma)
	if f.stored < uint64(f.rows()) {
		if ix.ids = viewOf(f, f.idsAt(), zeroCopy, 4, func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }); ix.ids == nil {
			ix.ids = []int32{} // a shard that stores nothing still lists its rows: none
		}
	}
	var err error
	if ix.f, ix.fqerr, err = f.factorFrom(zeroCopy); err != nil {
		return nil, err
	}
	if err := ix.CheckStored(); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
	if f.kind.whole {
		s := f.secs[f.graphAt()]
		ix.graph = carriedGraph{m: int64(f.m), weighted: f.weighted, at: graphAt, off: int64(s.off), length: s.length, crc: s.crc}
		if graphAt == nil {
			ix.graph.at, ix.graph.off = fromImage(f.data, s), 0
		}
		if err := ix.graph.check(ix.n, ix.ids); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// mapFile opens, sizes and maps path read-only, peeking the header first
// so a file of another kind or format fails as it would decoded, before
// anything is mapped. It maps the file up to its last section, the graph,
// which no query reads and a load reads with pread: so not even the
// kernel's fault-around, which maps page-cached neighbours of a faulted
// page, can make a page of it resident in the mapping. The returned mapping
// owns the pages and the open file, which the graph section is read
// through (openPaged); size is the file's.
func mapFile(path string, k *snapKind) (_ []byte, size uint64, _ *mapping, err error) {
	if !mmapSupported || !nativeLE {
		return nil, 0, nil, fmt.Errorf("%w (platform)", errMapUnsupported)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	// The header peek goes through the injected read site like every
	// other load-time disk read: a degraded disk (or an armed
	// SiteIndexRead plan) fails the mapped load the same way it fails
	// the buffered one — the decode fallback shares the disk, so
	// degrading to it could not help.
	var head [descSize]byte
	r := fault.Reader(fault.SiteIndexRead, f)
	if _, err := io.ReadFull(r, head[:8]); err != nil {
		return nil, 0, nil, fmt.Errorf("core: reading header: %w", corruptEOF(err))
	}
	if err := checkHead(head[:8], k); err != nil {
		return nil, 0, nil, err
	}
	if _, err := io.ReadFull(r, head[8:16]); err != nil { // tier and section count
		return nil, 0, nil, fmt.Errorf("core: reading header: %w", corruptEOF(err))
	}
	fi, err := f.Stat()
	if err != nil {
		// Environmental, not corruption — degrade to the buffered decode
		// like every other unmappable condition in this function.
		return nil, 0, nil, fmt.Errorf("%w (stat: %v)", errMapUnsupported, err)
	}
	if fi.Size() <= 0 || uint64(fi.Size()) > maxPlatformElems {
		return nil, 0, nil, fmt.Errorf("%w (size %d)", errMapUnsupported, fi.Size())
	}
	size = uint64(fi.Size())
	// The graph section's offset, from the last entry of the section table:
	// unvalidated here, so one that is not a page boundary inside the file
	// maps the whole file, for parsePaged to refuse.
	mapped := size
	if secs := binary.LittleEndian.Uint32(head[12:]); secs >= 1 && tableOff+int64(secs)*descSize <= headerCRCOff {
		if _, err := f.ReadAt(head[:8], tableOff+int64(secs-1)*descSize); err == nil {
			if off := binary.LittleEndian.Uint64(head[:8]); off >= pageSize && off < size && off%pageSize == 0 {
				mapped = off
			}
		}
	}
	// An injected map fault models mmap refusal (ulimit, fragmentation):
	// an environmental failure, so it degrades to the decode path rather
	// than failing the load.
	if err := fault.Hit(fault.SiteIndexMap); err != nil {
		return nil, 0, nil, fmt.Errorf("%w (injected: %v)", errMapUnsupported, err)
	}
	data, err := mmapFile(f, int64(mapped))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("%w (mmap: %v)", errMapUnsupported, err)
	}
	return data, size, &mapping{data: data, file: f}, nil
}

// MapIndex memory-maps a v5 snapshot and returns an Index whose factor is a
// zero-copy view over the mapping: the load copies nothing (header and
// metadata validation plus one CRC pass over the factor block, and one over
// the graph section read with pread, never through the mapping), pages fault
// in on first access, and RSS is shared with any other mapping of the same
// generation. The caller owns the mapping lifetime: Close the index only
// after every query that might touch it has drained (the serve layer's
// swap guarantees exactly this — see DESIGN.md). Returns
// errMapUnsupported-wrapped errors for unmappable environments,
// ErrFormat-wrapped for older formats and ErrCorrupt-wrapped for bad bytes.
func MapIndex(path string) (*Index, error) {
	ix, err := mapSnapshot(path, indexKind)
	if err != nil {
		return nil, fmt.Errorf("core: MapIndex %s: %w", path, err)
	}
	return ix, nil
}

// mapSnapshot is the one mapper, for files of either kind: map, parse,
// verify the factor CRC, build zero-copy views. The returned Index holds
// the mapping; for a shard file the caller hands it on as a ShardFile.
func mapSnapshot(path string, k *snapKind) (*Index, error) {
	data, size, m, err := mapFile(path, k)
	if err != nil {
		return nil, err
	}
	f, err := parsePaged(data, size, k)
	var ix *Index
	if err == nil {
		ix, err = openPaged(f, true, m.file)
	}
	if err != nil {
		m.close()
		return nil, err
	}
	ix.mapped = m
	return ix, nil
}
