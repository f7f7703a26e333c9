package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/sparse"
)

// graphDesc is the section-table entry of a v5 file's graph section, the
// last one.
func graphDesc(d []byte) sectionDesc {
	le := binary.LittleEndian
	i := int(le.Uint32(d[12:])) - 1
	e := d[tableOff+i*descSize:]
	return sectionDesc{off: le.Uint64(e), length: le.Uint64(e[8:]), crc: le.Uint32(e[16:])}
}

// v4Rewritten is the v5 file the current writer makes of the index (or
// shard) an exact-tier v4 fixture holds: its header words and its sigma,
// ids and factor sections, read through the section table the two versions
// share, with g as the index's graph.
func v4Rewritten(t *testing.T, name string, g *graph.Graph) []byte {
	t.Helper()
	d, le := golden(t, name), binary.LittleEndian
	if v, tier := le.Uint32(d[4:]), le.Uint32(d[8:]); v != 4 || tier != uint32(dense.F64) {
		t.Fatalf("%s: version %d tier %d, want an exact-tier v4 file", name, v, tier)
	}
	sec := func(i int) []byte {
		e := d[tableOff+i*descSize:]
		off := le.Uint64(e)
		return d[off : off+le.Uint64(e[8:])]
	}
	f64s := func(b []byte) []float64 {
		out := make([]float64, len(b)/8)
		for i := range out {
			out[i] = math.Float64frombits(le.Uint64(b[8*i:]))
		}
		return out
	}
	whole := strings.HasSuffix(name, ".csrx")
	first := 0
	if whole {
		first = 1 // sigma leads an index
	}
	var ids []int32
	for b := sec(first); len(b) > 0; b = b[4:] {
		ids = append(ids, int32(le.Uint32(b)))
	}
	n, rank, stored := int(le.Uint64(d[16:])), int(le.Uint64(d[24:])), int(le.Uint64(d[storedOff:]))
	sh := IndexShard{n: n, hi: n, c: math.Float64frombits(le.Uint64(d[32:])), rank: rank, ids: ids,
		f:     dense.TypedFromMat(dense.NewMatFrom(stored, rank, f64s(sec(first+1+factorSecs-1)))),
		build: le.Uint64(d[buildOff:]), clamp: math.Float64frombits(le.Uint64(d[clampOff:]))}
	var buf bytes.Buffer
	var err error
	if whole {
		ix := &Index{IndexShard: sh, iters: int(le.Uint64(d[40:])), sigma: f64s(sec(0)), walSeq: le.Uint64(d[walSeqOff:]), graph: carry(g)}
		_, err = ix.WriteTo(&buf)
	} else {
		sh.lo, sh.hi = int(le.Uint64(d[40:])), int(le.Uint64(d[48:]))
		_, err = sh.WriteTo(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotV5FactorBlockIsV4s pins that v5 added a section and moved
// nothing: past the header page, every v4 fixture's bytes are the start of
// its v5 twin's — sigma, ids and the factor block byte for byte — and a
// shard file, whose graph section is empty, is its v4 twin past the header.
// The 6-node fixtures' twins are the v5 fixtures, cut from the index the v4
// ones were. The compacted pair and the every-row twin hold Precompute's
// factor on compactGraph, which a re-pin of phase I moves (the keyed sketch
// did) while the v4 files stay as the last v4 writer left them; their twin
// is what the current writer makes of the index the v4 file holds.
func TestSnapshotV5FactorBlockIsV4s(t *testing.T) {
	pairs := map[string][]byte{}
	for _, v4 := range []string{goldenCompactV4, goldenCompactShardV4, goldenSparseV4} {
		pairs[v4] = v4Rewritten(t, v4, compactGraph(t))
	}
	for _, tier := range goldenTiers {
		pairs["index.v4-"+tier.String()+".csrx"] = golden(t, goldenIndexV5(tier))
		pairs["shard.v4-"+tier.String()+".csrs"] = golden(t, goldenShardV5(tier))
	}
	for v4, cur := range pairs {
		old := golden(t, v4)
		if len(cur) < len(old) || !bytes.Equal(cur[pageSize:len(old)], old[pageSize:]) {
			t.Errorf("%s past its header is not its v5 twin's prefix", v4)
		}
		if strings.HasSuffix(v4, ".csrs") && len(cur) != len(old) {
			t.Errorf("%s's v5 twin is %d bytes, it %d: a shard's graph section is empty", v4, len(cur), len(old))
		}
	}
}

// TestSnapshotGraphSectionFlipFallsBack flips one byte of the newest
// generation's graph section — payload and padding — and holds the load to
// what a factor CRC failure gets: ErrCorrupt from the mapper and the
// decoder alike, and a recovery that skips the generation and serves the
// one below it.
func TestSnapshotGraphSectionFlipFallsBack(t *testing.T) {
	ix := compactIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	g := graphDesc(pristine)
	payload := binary.LittleEndian.Uint64(pristine[tableOff+4*descSize:]) // the factor payload
	for name, at := range map[string]uint64{
		"graph offsets":  g.off + 5,
		"graph sources":  g.off + g.length - 1,
		"graph padding":  g.end() - 1,
		"factor payload": payload + 3,
	} {
		t.Run(name, func(t *testing.T) {
			data := bytes.Clone(pristine)
			data[at] ^= 0x20
			if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode: err = %v, want wrapped ErrCorrupt", err)
			}
			dir := t.TempDir()
			if _, _, err := WriteSnapshot(dir, ix); err != nil {
				t.Fatal(err)
			}
			bad := filepath.Join(dir, SnapshotName(2))
			if err := os.WriteFile(bad, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if l, err := LoadIndex(bad); !errors.Is(err, ErrCorrupt) {
				if err == nil {
					l.Close()
				}
				t.Fatalf("load: err = %v, want wrapped ErrCorrupt", err)
			}
			got, snap, recovered, err := RecoverSnapshot(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			if snap.Gen != 1 || !recovered || !errors.Is(snap.Skipped, ErrCorrupt) {
				t.Fatalf("recovered generation %d (recovered=%v, skipped %v), want 1 past a corrupt 2", snap.Gen, recovered, snap.Skipped)
			}
		})
	}
}

// TestSnapshotShardCarriesEmptyGraph pins that a CSRS file carries the
// graph section empty, as quantisation sections are for tiers without them,
// and that one claiming a graph is corrupt.
func TestSnapshotShardCarriesEmptyGraph(t *testing.T) {
	le := binary.LittleEndian
	for name, k := range goldenV5Files() {
		if k != shardKind {
			continue
		}
		data := golden(t, name)
		if g := graphDesc(data); g.length != 0 || g.crc != 0 || le.Uint64(data[edgesOff:]) != 0 || le.Uint64(data[weightedOff:]) != 0 {
			t.Errorf("%s: graph section %+v, m=%d weighted=%d; want empty", name, g, le.Uint64(data[edgesOff:]), le.Uint64(data[weightedOff:]))
		}
		for word, val := range map[int]uint64{edgesOff: 3, weightedOff: 1} {
			forged := bytes.Clone(data)
			le.PutUint64(forged[word:], val)
			repatchHeaderCRC(forged)
			if _, err := ReadShard(bytes.NewReader(forged)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s with header word %d = %d: err = %v, want wrapped ErrCorrupt", name, word, val, err)
			}
		}
	}
}

// linksOf decodes the graph ix carries as an ingest boot would.
func linksOf(t *testing.T, ix *Index) *inLinks {
	t.Helper()
	l, err := ix.graph.links(ix.n)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSnapshotGraphDecodeFallbackIdentical holds the three ways a graph
// section reaches memory — pread from a mapped file, out of a decoded
// image, and element by element where the host is not little-endian — to
// the same start, srcs and weights: the CSC carved from the graph the file
// was written from.
func TestSnapshotGraphDecodeFallbackIdentical(t *testing.T) {
	defer func(le bool) { nativeLE = le }(nativeLE)
	weighted, err := Precompute(weightedGraph(t), Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]*graph.Graph{goldenCompactV5: compactGraph(t), goldenWeightedV5: weightedGraph(t), goldenIndexV5(dense.F64): paperGraph(t)} {
		want := inLinksOf(src)
		mapped, err := LoadIndex(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadIndex(bytes.NewReader(golden(t, name)))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]*inLinks{"decoded": linksOf(t, decoded), "mapped": linksOf(t, mapped)}
		nativeLE = false
		got["decoded, portable"], got["mapped, portable"] = linksOf(t, decoded), linksOf(t, mapped)
		nativeLE = true
		mapped.Close()
		for how, l := range got {
			if !reflect.DeepEqual(l.start, want.start) || !reflect.DeepEqual(l.srcs, want.srcs) {
				t.Errorf("%s %s: start/srcs differ from the graph's CSC", name, how)
			}
			wantBitwise(t, name+" "+how+" weights", l.w, want.w)
		}
	}
	if gi, ok := weighted.Graph(); !ok || !gi.Weighted || gi.M != weightedGraph(t).M() {
		t.Fatalf("weighted index carries %+v", gi)
	}
}

// TestSnapshotGraphBindsToFactor refuses a file whose graph is not the one
// its factor was built from: an in-link support that differs from the
// stored rows, and offsets that break the CSC layout, both under a
// resealed CRC.
func TestSnapshotGraphBindsToFactor(t *testing.T) {
	ix := compactIndex(t)
	// Node 3 has no in-link in compactGraph and no stored row; give it one.
	adj := compactGraph(t).Adj()
	rowPtr := append([]int64(nil), adj.RowPtr...)
	colIdx := append([]int32(nil), adj.ColIdx...)
	other, err := graph.FromCSR(withEdge(t, rowPtr, colIdx, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	ix.graph = carry(other)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"support gains node 3": buf.Bytes(), "offsets decrease": decreasing(t)} {
		if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode err = %v, want wrapped ErrCorrupt", name, err)
		}
		p := filepath.Join(t.TempDir(), "ix.csrx")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := LoadIndex(p); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				l.Close()
			}
			t.Errorf("%s: load err = %v, want wrapped ErrCorrupt", name, err)
		}
	}
}

// withEdge is a CSR of rowPtr/colIdx plus the edge u -> v.
func withEdge(t *testing.T, rowPtr []int64, colIdx []int32, u, v int) *sparse.CSR {
	t.Helper()
	n := len(rowPtr) - 1
	at := rowPtr[u+1]
	for p := rowPtr[u]; p < rowPtr[u+1]; p++ {
		if int(colIdx[p]) > v {
			at = p
			break
		}
	}
	colIdx = append(colIdx[:at], append([]int32{int32(v)}, colIdx[at:]...)...)
	for w := u + 1; w <= n; w++ {
		rowPtr[w]++
	}
	val := make([]float64, len(colIdx))
	for i := range val {
		val[i] = 1
	}
	m, err := sparse.NewCSR(n, n, rowPtr, colIdx, val)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// decreasing is the compacted fixture with two neighbouring offsets of its
// graph section swapped, resealed.
func decreasing(t *testing.T) []byte {
	data := golden(t, goldenCompactV5)
	g := graphDesc(data)
	le := binary.LittleEndian
	a, b := le.Uint32(data[g.off+8:]), le.Uint32(data[g.off+12:])
	le.PutUint32(data[g.off+8:], b)
	le.PutUint32(data[g.off+12:], a)
	i := int(le.Uint32(data[12:])) - 1
	resealSection(data, tableOff, i)
	return data
}

// TestSnapshotWalFloor reads the WAL sequence every generation of a
// directory holds: the smallest of theirs, and 0 once one of them cannot be
// read as a generation this build serves, or there are none.
func TestSnapshotWalFloor(t *testing.T) {
	dir := t.TempDir()
	if floor, err := WalFloor(dir); err != nil || floor != 0 {
		t.Fatalf("empty directory: floor %d, err %v", floor, err)
	}
	ix := compactIndex(t)
	for _, seq := range []uint64{9, 5, 12} {
		ix.SetWalSeq(seq)
		if _, _, err := WriteSnapshot(dir, ix); err != nil {
			t.Fatal(err)
		}
	}
	if floor, err := WalFloor(dir); err != nil || floor != 5 {
		t.Fatalf("generations at 9, 5, 12: floor %d, err %v", floor, err)
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotName(9)), golden(t, goldenCompactV4), 0o644); err != nil {
		t.Fatal(err)
	}
	if floor, err := WalFloor(dir); err != nil || floor != 0 {
		t.Fatalf("with a v4 generation: floor %d, err %v", floor, err)
	}
}

// TestSnapshotMappedRssExcludesGraph reads the mapping's resident set from
// /proc/self/smaps after MapIndex of a file whose graph section dwarfs the
// rest: the mapping ends where the section begins, the load checksummed the
// section with pread, and building a Dynamic from it reads it the same way,
// so no page of it is resident in the mapping — not even one the kernel's
// fault-around would map beside a faulted factor page.
func TestSnapshotMappedRssExcludesGraph(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/smaps")
	}
	const n, m = 4000, 400000
	g, err := graph.ErdosRenyi(n, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := synthBenchIndex(n, 4)
	ix.graph = carry(g)
	path := writeSnapFile(t, ix)
	mapped, err := MapIndex(path)
	if errors.Is(err, errMapUnsupported) {
		t.Skip("mmap unavailable on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	section := alignPage(graphSectionLen(n, uint64(g.M()), false))
	rest := uint64(fi.Size()) - section
	if got := uint64(len(mapped.mapped.data)); got != rest {
		t.Fatalf("the mapping is %d B; the file outside its %d-byte graph section is %d B", got, section, rest)
	}
	if rss := mappingRss(t, mapped.mapped.data); rss > rest || rss < uint64(mapped.f.Bytes()) {
		t.Fatalf("mapping Rss %d B after the load; want at least the %d-byte factor and at most the %d B outside the graph section", rss, mapped.f.Bytes(), rest)
	}
	if _, err := NewDynamic(nil, mapped); err != nil {
		t.Fatal(err)
	}
	if rss := mappingRss(t, mapped.mapped.data); rss > rest {
		t.Fatalf("mapping Rss %d B after NewDynamic; the file outside its %d-byte graph section is %d B", rss, section, rest)
	}
}

// mappingRss is the Rss /proc/self/smaps reports for the mapping holding
// data.
func mappingRss(t *testing.T, data []byte) uint64 {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skip(err)
	}
	defer f.Close()
	addr := uint64(uintptr(unsafe.Pointer(&data[0])))
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if lo, hi, ok := strings.Cut(fields[0], "-"); ok && !strings.HasSuffix(fields[0], ":") {
			a, err1 := strconv.ParseUint(lo, 16, 64)
			b, err2 := strconv.ParseUint(hi, 16, 64)
			in = err1 == nil && err2 == nil && a <= addr && addr < b
			continue
		}
		if in && fields[0] == "Rss:" {
			kb, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatalf("no mapping at %#x in /proc/self/smaps", addr)
	return 0
}

// Test_DynamicFromSnapshotGraph builds the live graph three ways — from
// the graph in hand, from the graph a precomputed index carries and from a
// snapshot's graph section — and holds them to one state, through a stream
// of edges.
func Test_DynamicFromSnapshotGraph(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"unweighted": compactGraph(t), "weighted": weightedGraph(t)} {
		ix, err := Precompute(g, Options{Rank: 3})
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadIndex(writeSnapFile(t, ix))
		if err != nil {
			t.Fatal(err)
		}
		var ds []*Dynamic
		for _, args := range []struct {
			g  *graph.Graph
			ix *Index
		}{{g, ix}, {nil, ix}, {nil, loaded}} {
			d, err := NewDynamic(args.g, args.ix)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if _, _, err := d.ApplyEdge((i*7)%g.N(), (i*11+3)%g.N(), 0.5+float64(i%3), true); err != nil {
					t.Fatal(err)
				}
			}
			ds = append(ds, d)
		}
		loaded.Close()
		for i, d := range ds[1:] {
			if d.m != ds[0].m || d.Drift() != ds[0].Drift() || !reflect.DeepEqual(d.start, ds[0].start) || !reflect.DeepEqual(d.srcs, ds[0].srcs) ||
				!reflect.DeepEqual(d.bw, ds[0].bw) || !reflect.DeepEqual(d.totw, ds[0].totw) || !reflect.DeepEqual(d.log, ds[0].log) {
				t.Errorf("%s: dynamic state %d differs from the one over the graph in hand", name, i+1)
			}
		}
	}
	bare := &Index{IndexShard: IndexShard{n: 4, hi: 4, c: 0.6, rank: 1, f: dense.TypedFromMat(dense.NewMat(4, 1))}}
	if _, err := NewDynamic(nil, bare); !errors.Is(err, ErrParams) {
		t.Fatalf("an index without a graph: err = %v, want ErrParams", err)
	}
	if _, err := bare.WriteTo(&bytes.Buffer{}); !errors.Is(err, ErrParams) {
		t.Fatalf("writing an index without a graph: err = %v, want ErrParams", err)
	}
}
