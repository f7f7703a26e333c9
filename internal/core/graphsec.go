package core

// graphsec.go is the graph an index carries (snapshot v5, DESIGN.md §13):
// Q's in-link structure as one CSC — start, n+1 int32 offsets; srcs, m
// int32 sources, target-major and ascending within a target; and, on a
// weighted graph only, the m float64 weights in srcs' order. It is the
// layout Dynamic boots from, so an ingest boot reads its live graph from
// the snapshot it serves instead of regenerating the graph and replaying
// the whole WAL onto it.
//
// A serving process never reads the section through its mapping: a load
// checksums it with pread (binding it to the factor on the way, see
// supportCheck), and only an ingest boot decodes it, with pread, into
// memory its Dynamic owns. So a process that serves queries alone keeps
// none of it resident.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"unsafe"

	"csrplus/internal/graph"
)

// inLinks is Q's in-link CSC: v's in-neighbours are
// srcs[start[v]:start[v+1]], ascending; w holds their weights, nil unless
// the graph is weighted.
type inLinks struct {
	start, srcs []int32
	w           []float64
}

// inLinksOf carves g's in-lists out of its out-lists: one counting pass
// sizes the lists, and sources visited in ascending order fill each list in
// ascending order.
func inLinksOf(g *graph.Graph) *inLinks {
	n, adj := g.N(), g.Adj()
	l := &inLinks{start: make([]int32, n+1), srcs: make([]int32, len(adj.ColIdx))}
	if g.Weighted() {
		l.w = make([]float64, len(adj.ColIdx))
	}
	for _, v := range adj.ColIdx {
		l.start[v+1]++
	}
	for v := 0; v < n; v++ {
		l.start[v+1] += l.start[v]
	}
	// start[v] is v's fill cursor until it reaches start[v+1]; the copy
	// shifts the offsets back.
	for u := 0; u < n; u++ {
		for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
			v := adj.ColIdx[p]
			q := l.start[v]
			l.start[v]++
			l.srcs[q] = int32(u)
			if l.w != nil {
				l.w[q] = adj.Val[p]
			}
		}
	}
	copy(l.start[1:], l.start[:n])
	l.start[0] = 0
	return l
}

func i32Section(data []int32) section {
	return sectionOf(data, 4, func(b []byte, v int32) { binary.LittleEndian.PutUint32(b, uint32(v)) })
}

// section renders the CSC as one section: start, srcs, then the weights.
func (l *inLinks) section() section {
	parts := []section{i32Section(l.start), i32Section(l.srcs), f64Section(l.w)}
	var length uint64
	for _, p := range parts {
		length += p.length
	}
	return section{length, func(w io.Writer) error {
		for _, p := range parts {
			if err := p.encode(w); err != nil {
				return err
			}
		}
		return nil
	}}
}

// graphSectionLen is the byte length of the graph section of an n-node
// graph with m edges.
func graphSectionLen(n, m uint64, weighted bool) uint64 {
	per := uint64(4)
	if weighted {
		per += 8
	}
	return 4*(n+1) + per*m
}

// carriedGraph is the graph an index carries: the graph Precompute ran over
// (g), or the graph section of the file the index was loaded from, read
// through at — the file, never its mapping — at [off, off+length), whose
// CRC covers the padded extent.
type carriedGraph struct {
	m        int64
	weighted bool

	g *graph.Graph

	at     io.ReaderAt
	off    int64
	length uint64
	crc    uint32
}

func carry(g *graph.Graph) carriedGraph {
	return carriedGraph{m: g.M(), weighted: g.Weighted(), g: g}
}

// none reports that no graph is carried: the zero value.
func (cg *carriedGraph) none() bool { return cg.g == nil && cg.at == nil }

// GraphInfo describes the graph an index carries.
type GraphInfo struct {
	// M is its edge count and Weighted whether the section stores weights.
	M        int64
	Weighted bool
	// Bytes and CRC are its section's payload length and checksum; 0 for a
	// graph that has not been written (an index precomputed here).
	Bytes uint64
	CRC   uint32
}

// Graph describes the graph ix carries — its snapshot's graph section, or
// the graph it was precomputed over — and reports false when it carries
// none (an index assembled by hand).
func (ix *Index) Graph() (GraphInfo, bool) {
	cg := &ix.graph
	if cg.none() {
		return GraphInfo{}, false
	}
	return GraphInfo{M: cg.m, Weighted: cg.weighted, Bytes: cg.length, CRC: cg.crc}, true
}

// section renders the graph for a writer: the CSC carved from g, or the
// file section's bytes copied as they lie.
func (cg *carriedGraph) section() section {
	if cg.g != nil {
		return inLinksOf(cg.g).section()
	}
	return section{cg.length, func(w io.Writer) error {
		_, err := io.CopyBuffer(w, io.NewSectionReader(cg.at, cg.off, int64(cg.length)), make([]byte, writeChunk))
		return corruptEOF(err)
	}}
}

// check is the load's pass over a file's graph section, read with pread in
// writeChunk pieces: it checksums the padded extent and holds the offsets
// to the layout and the in-link support to the factor's stored rows.
func (cg *carriedGraph) check(n int, ids []int32) error {
	sc := supportCheck{ids: ids}
	padded := alignPage(cg.length)
	startLen := 4 * uint64(n+1)
	var crc uint32
	words := chunkPool.Get().(*[writeChunk / 4]int32)
	defer chunkPool.Put(words)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), writeChunk)
	for done := uint64(0); done < padded; {
		chunk := buf[:min(uint64(len(buf)), padded-done)]
		if _, err := cg.at.ReadAt(chunk, cg.off+int64(done)); err != nil {
			return fmt.Errorf("core: reading the graph section: %w", corruptEOF(err))
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		if done < startLen {
			// writeChunk is a multiple of 4, so no offset straddles two
			// chunks; on a little-endian host the bytes are the offsets.
			offs := words[:min(uint64(len(chunk)), startLen-done)/4]
			if !nativeLE {
				for i := range offs {
					offs[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
				}
			}
			if err := sc.scan(offs); err != nil {
				return err
			}
		}
		done += uint64(len(chunk))
	}
	if crc != cg.crc {
		return fmt.Errorf("core: snapshot graph section checksum %08x, want %08x: %w", crc, cg.crc, ErrCorrupt)
	}
	return sc.end(cg.m)
}

// chunkPool lends check its read buffer, so a load allocates none.
var chunkPool = sync.Pool{New: func() any { return new([writeChunk / 4]int32) }}

// supportCheck reads start a chunk at a time and holds it to the CSC
// layout — 0 first, never decreasing, ending at m — and Q's in-link
// support, the nodes v with start[v+1] > start[v], to ids, the rows the
// factor stores: Precompute stores exactly the nodes with an in-link when
// it leaves rows out. The two sets are equal when every stored row is
// linked and they are as many, which is how it is checked: a count over
// the offsets with no branch on them (a WT load reads 131 073), and a walk
// of the ascending ids. A factor that stores every row (ids nil) binds
// nothing past n: a graph decomposed as given keeps rows for nodes without
// in-links.
type supportCheck struct {
	ids    []int32
	read   int   // offsets read so far
	last   int32 // the last of them
	row    int   // ids[row] is the next stored row to check
	linked int   // nodes seen with an in-link
}

// scan takes the next offsets of start.
func (s *supportCheck) scan(offs []int32) error {
	if len(offs) == 0 {
		return nil
	}
	if s.read == 0 {
		if offs[0] != 0 {
			return fmt.Errorf("core: graph section starts at offset %d: %w", offs[0], ErrCorrupt)
		}
		offs, s.read = offs[1:], 1
	}
	// offs[j] ends the in-list of node v0+j, which starts at offs[j-1], or
	// at prev for j = 0.
	v0, prev := s.read-1, s.last
	last, down, linked := prev, int32(0), 0
	for _, off := range offs {
		down |= off - last                    // negative once any offset decreases
		linked += int(uint32(last-off) >> 31) // 1 when off > last
		last = off
	}
	if down < 0 {
		return fmt.Errorf("core: graph section offsets decrease among nodes %d to %d: %w", v0, v0+len(offs), ErrCorrupt)
	}
	for ; s.row < len(s.ids) && int(s.ids[s.row]) < v0+len(offs); s.row++ {
		j, from := int(s.ids[s.row])-v0, prev
		if j > 0 {
			from = offs[j-1]
		}
		if offs[j] == from {
			return fmt.Errorf("core: node %d has a stored row but no in-link in the graph section: the graph is not the one the factor was built from: %w", s.ids[s.row], ErrCorrupt)
		}
	}
	s.read += len(offs)
	s.last, s.linked = last, s.linked+linked
	return nil
}

// end checks the last offset against the edge count, and the linked nodes
// against the stored rows.
func (s *supportCheck) end(m int64) error {
	if int64(s.last) != m {
		return fmt.Errorf("core: graph section offsets end at %d, header says %d edges: %w", s.last, m, ErrCorrupt)
	}
	if s.ids != nil && s.linked != len(s.ids) {
		return fmt.Errorf("core: %d nodes have in-links in the graph section and the factor stores %d rows: the graph is not the one the factor was built from: %w", s.linked, len(s.ids), ErrCorrupt)
	}
	return nil
}

// readLinks decodes the section into fresh memory — with pread straight
// into the slices it returns on a little-endian host — checks its CRC and
// holds it to the CSC layout, so a Dynamic can own it.
func (cg *carriedGraph) readLinks(n int) (*inLinks, error) {
	l := &inLinks{start: make([]int32, n+1), srcs: make([]int32, cg.m)}
	if cg.weighted {
		l.w = make([]float64, cg.m)
	}
	h := crc32.NewIEEE()
	off := cg.off
	read := func(raw []byte, decode func([]byte)) error {
		if len(raw) == 0 {
			return nil
		}
		if _, err := cg.at.ReadAt(raw, off); err != nil {
			return fmt.Errorf("core: reading the graph section: %w", corruptEOF(err))
		}
		h.Write(raw)
		off += int64(len(raw))
		if decode != nil {
			decode(raw)
		}
		return nil
	}
	if err := readInto(read, l.start, 4, func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }); err != nil {
		return nil, err
	}
	if err := readInto(read, l.srcs, 4, func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }); err != nil {
		return nil, err
	}
	if err := readInto(read, l.w, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }); err != nil {
		return nil, err
	}
	if err := read(make([]byte, alignPage(cg.length)-cg.length), nil); err != nil {
		return nil, err
	}
	if got := h.Sum32(); got != cg.crc {
		return nil, fmt.Errorf("core: snapshot graph section checksum %08x, want %08x: %w", got, cg.crc, ErrCorrupt)
	}
	if err := l.validate(n); err != nil {
		return nil, err
	}
	return l, nil
}

// readInto fills dst, size-byte little-endian elements, through read: the
// slice's own memory on a little-endian host, a chunk at a time decoded by
// get elsewhere.
func readInto[T any](read func([]byte, func([]byte)) error, dst []T, size int, get func([]byte) T) error {
	if len(dst) == 0 {
		return nil
	}
	if nativeLE {
		return read(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(dst)*size), nil)
	}
	buf := make([]byte, writeChunk)
	for rest := dst; len(rest) > 0; rest = rest[min(writeChunk/size, len(rest)):] {
		chunk := rest[:min(writeChunk/size, len(rest))]
		if err := read(buf[:len(chunk)*size], func(b []byte) {
			for i := range chunk {
				chunk[i] = get(b[i*size:])
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// validate holds a decoded CSC to what Dynamic relies on: offsets from 0
// to m, never decreasing; every list strictly ascending inside [0, n); every
// weight positive and finite. A section that passed its CRC was written
// this way, so this guards against a forged file, not a torn one.
func (l *inLinks) validate(n int) error {
	if l.start[0] != 0 || int(l.start[n]) != len(l.srcs) {
		return fmt.Errorf("core: graph section offsets run from %d to %d over %d edges: %w", l.start[0], l.start[n], len(l.srcs), ErrCorrupt)
	}
	for v := 0; v < n; v++ {
		lo, hi := l.start[v], l.start[v+1]
		if hi < lo {
			return fmt.Errorf("core: graph section offset of node %d decreases: %w", v+1, ErrCorrupt)
		}
		prev := int32(-1)
		for _, u := range l.srcs[lo:hi] {
			if u <= prev || int(u) >= n {
				return fmt.Errorf("core: graph section in-list of node %d holds %d after %d: %w", v, u, prev, ErrCorrupt)
			}
			prev = u
		}
	}
	for p, x := range l.w {
		if !(x > 0) || math.IsInf(x, 0) {
			return fmt.Errorf("core: graph section weight %d is %v: %w", p, x, ErrCorrupt)
		}
	}
	return nil
}

// links returns the CSC the graph's Dynamic starts from, in memory the
// caller owns.
func (cg *carriedGraph) links(n int) (*inLinks, error) {
	if cg.g != nil {
		return inLinksOf(cg.g), nil
	}
	return cg.readLinks(n)
}

// fromImage is the graph section of a decoded image: its bytes, padding
// included, copied out of data so the image itself can be dropped.
func fromImage(data []byte, s sectionDesc) io.ReaderAt {
	return bytes.NewReader(bytes.Clone(data[s.off:s.end()]))
}
