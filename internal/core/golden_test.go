package core

// golden_test.go holds the on-disk format to checked-in fixtures, so a
// writer and a reader that drift together still fail. The v3 files in
// testdata/ were written by the last writer of the two-factor format from
// the paper's 6-node graph (rank 3, walSeq 7, shard rows [2, 5)) and from
// compactIndex's graph, and the v4 files by the last writer without the
// graph section: the exact 6-node index (index.v4-f64.csrx, the one factor
// of the v3 file's Z and U), its f32 and int8 tiers cut from it, the
// compacted pair and the every-row twin. Nothing can rewrite them, and
// every loader must refuse them as stale (ErrFormat). The v5 files are the
// v4 ones with the graph each was built from, plus an index over a weighted
// graph — the compacted pair, the every-row twin and the weighted index as
// phase I computes them now: the keyed sketch re-pinned their factors, so
// the v4 compacted files hold other numbers in the same layout
// (TestSnapshotV5FactorBlockIsV4s). `go test ./internal/core -run Golden
// -update` rewrites the v5 files from the current writer — only ever on a
// deliberate format change or re-pin, since the test then proves nothing
// about the bytes already on operators' disks.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/sparse"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ golden snapshot files from the current writers")

const (
	goldenWalSeq       = 7
	goldenLo, goldenHi = 2, 5

	// The compacted pair: compactIndex's 48-node index, which stores 36
	// rows, and its rows [5, 30); and the same index storing every row,
	// twelve of them all zero — what other packages hold a compacted index
	// to.
	goldenCompactV5                  = "index.v5-compact.csrx"
	goldenCompactShardV5             = "shard.v5-compact.csrs"
	goldenSparseV5                   = "index.v5-sparse.csrx"
	goldenCompactLo, goldenCompactHi = 5, 30
	compactN, compactStored          = 48, 36

	// The index over weightedGraph: its graph section stores weights.
	goldenWeightedV5 = "index.v5-weighted.csrx"

	// The fixtures without a graph section, refused as stale like the v3
	// ones: the exact index at WAL sequence 7 and at 0, the compacted pair
	// and its every-row twin.
	goldenIndexV4Wal0    = "index.v4-f64-wal0.csrx"
	goldenCompactV4      = "index.v4-compact.csrx"
	goldenCompactShardV4 = "shard.v4-compact.csrs"
	goldenSparseV4       = "index.v4-sparse.csrx"

	// The two-factor fixtures the stale rule is held to, and fuzz seeds:
	// the 6-node index exact and at int8, one shard of it, and the
	// compacted index.
	goldenIndexV3        = "index.v3-f64.csrx"
	goldenIndexV3Int8    = "index.v3-int8.csrx"
	goldenShardV3        = "shard.v3-f64.csrs"
	goldenCompactIndexV3 = "index.v3-compact.csrx"
)

var goldenTiers = []dense.Kind{dense.F64, dense.F32, dense.I8}

func goldenIndexV5(tier dense.Kind) string { return "index.v5-" + tier.String() + ".csrx" }
func goldenShardV5(tier dense.Kind) string { return "shard.v5-" + tier.String() + ".csrs" }

// goldenFiles lists every fixture with its kind, for the fuzz seeds and
// the sweep tests.
func goldenFiles() map[string]*snapKind {
	files := goldenV5Files()
	for name, k := range goldenStaleFiles() {
		files[name] = k
	}
	return files
}

// goldenV5Files lists the fixtures the current writer must reproduce.
func goldenV5Files() map[string]*snapKind {
	files := map[string]*snapKind{goldenCompactV5: indexKind, goldenCompactShardV5: shardKind, goldenSparseV5: indexKind, goldenWeightedV5: indexKind}
	for _, tier := range goldenTiers {
		files[goldenIndexV5(tier)] = indexKind
		files[goldenShardV5(tier)] = shardKind
	}
	return files
}

// goldenStaleFiles lists the v3 and v4 fixtures every loader refuses.
func goldenStaleFiles() map[string]*snapKind {
	files := map[string]*snapKind{goldenIndexV3: indexKind, goldenIndexV3Int8: indexKind, goldenShardV3: shardKind, goldenCompactIndexV3: indexKind,
		goldenCompactV4: indexKind, goldenCompactShardV4: shardKind, goldenSparseV4: indexKind, goldenIndexV4Wal0: indexKind}
	for _, tier := range goldenTiers {
		files["index.v4-"+tier.String()+".csrx"] = indexKind
		files["shard.v4-"+tier.String()+".csrs"] = shardKind
	}
	return files
}

func golden(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// goldenIndex decodes the exact-tier v5 index fixture: the index every v5
// fixture but the compacted pair and the weighted index was cut or
// quantized from.
func goldenIndex(tb testing.TB) *Index {
	tb.Helper()
	ix, err := ReadIndex(bytes.NewReader(golden(tb, goldenIndexV5(dense.F64))))
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

func wantSameBytes(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %d bytes differ from the %d-byte golden", label, len(got), len(want))
	}
}

// wantSameFactors holds two shards to the same header, stored rows and
// factor entries, bit for bit at whatever tier they share.
func wantSameFactors(t *testing.T, label string, got, want *IndexShard) {
	t.Helper()
	if got.n != want.n || got.lo != want.lo || got.hi != want.hi || got.rank != want.rank || got.c != want.c || got.build != want.build || got.clamp != want.clamp {
		t.Fatalf("%s: header %d [%d, %d) r=%d c=%v build=%x clamp=%v, want %d [%d, %d) r=%d c=%v build=%x clamp=%v", label,
			got.n, got.lo, got.hi, got.rank, got.c, got.build, got.clamp, want.n, want.lo, want.hi, want.rank, want.c, want.build, want.clamp)
	}
	if !reflect.DeepEqual(got.ids, want.ids) {
		t.Fatalf("%s: stores rows %v, want %v", label, got.ids, want.ids)
	}
	if !reflect.DeepEqual(got.f.F32, want.f.F32) || !reflect.DeepEqual(got.f.I8, want.f.I8) {
		t.Fatalf("%s: F codes differ", label)
	}
	wantBitwise(t, label+" F", got.f.F64, want.f.F64)
	wantBitwise(t, label+" F scale", got.f.Scale, want.f.Scale)
	wantBitwise(t, label+" fqerr", got.fqerr, want.fqerr)
}

// compactGraph has 48 nodes, of which every fourth (3, 7, …, 47) links out
// but is never linked to.
func compactGraph(t testing.TB) *graph.Graph {
	t.Helper()
	var linked []int
	for i := 0; i < compactN; i++ {
		if i%4 != 3 {
			linked = append(linked, i)
		}
	}
	coo := sparse.NewCOO(compactN, compactN)
	for i := 0; i < compactN; i++ {
		for _, step := range []int{1, 3, 4} {
			if j := linked[(i*5+step*7)%len(linked)]; j != i {
				if err := coo.Add(i, j, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return graph.New(coo)
}

// compactIndex is phase I on compactGraph: at rank 3 the SVD works on the
// 36 columns that hold an entry, and the index stores exactly those rows.
func compactIndex(t testing.TB) *Index {
	t.Helper()
	ix, err := Precompute(compactGraph(t), Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix.SetWalSeq(goldenWalSeq)
	return ix
}

// weightedGraph is the paper's 6-node graph with edge weights 1, 1.5, 2, ….
func weightedGraph(t testing.TB) *graph.Graph {
	t.Helper()
	adj := paperGraph(t).Adj()
	n, _ := adj.Dims()
	coo := sparse.NewCOO(n, n)
	for u := 0; u < n; u++ {
		for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
			if err := coo.Add(u, int(adj.ColIdx[p]), 1+float64(p)/2); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := graph.NewWeighted(coo)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenV5 renders every v5 fixture from the current writer: the exact
// v5 fixture's index carrying the paper's graph, encoded at each tier, the
// compacted pair, the compacted index with its zero rows spread back in,
// and the index over the weighted graph.
func goldenV5(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	put := func(name string, writeTo func(io.Writer) (int64, error)) {
		var buf bytes.Buffer
		if _, err := writeTo(&buf); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	pair := func(ix *Index, lo, hi int, ixName, shName string) {
		sh, err := ix.Shard(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		put(ixName, ix.WriteTo)
		put(shName, sh.WriteTo)
	}
	exact := goldenIndex(t)
	exact.graph = carry(paperGraph(t))
	for _, tier := range goldenTiers {
		q, err := exact.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		pair(q, goldenLo, goldenHi, goldenIndexV5(tier), goldenShardV5(tier))
	}
	compact := compactIndex(t)
	pair(compact, goldenCompactLo, goldenCompactHi, goldenCompactV5, goldenCompactShardV5)
	put(goldenSparseV5, compact.withFactor(nil, dense.TypedFromMat(compact.denseF64()), nil).WriteTo)
	weighted, err := Precompute(weightedGraph(t), Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	weighted.SetWalSeq(goldenWalSeq)
	put(goldenWeightedV5, weighted.WriteTo)
	return out
}

// TestGoldenUpdate regenerates the v5 fixtures under -update and is a
// no-op otherwise.
func TestGoldenUpdate(t *testing.T) {
	if !*updateGolden {
		t.Skip("fixtures are refreshed only by an explicit -update")
	}
	for name, data := range goldenV5(t) {
		if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenV3Compact reads the fixture that leaves rows out: the decoder,
// the mapper and the index the file was written from hold the same 36 rows
// and answer alike, and its shard file is rows [5, 30) of it.
func TestGoldenV3Compact(t *testing.T) {
	want := compactIndex(t)
	if want.Stored() != compactStored || want.ids == nil {
		t.Fatalf("fixture stores %d of %d rows (ids %v), want %d listed", want.Stored(), want.N(), want.ids, compactStored)
	}
	path := filepath.Join("testdata", goldenCompactV5)
	decoded, err := ReadIndex(bytes.NewReader(golden(t, goldenCompactV5)))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(path) // mapped where the platform can
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	queries := []int{0, 3, 7, 47, 9}
	for label, got := range map[string]*Index{"decoded": decoded, "loaded": loaded} {
		wantSameFactors(t, label, &got.IndexShard, &want.IndexShard)
		if got.WalSeq() != goldenWalSeq {
			t.Fatalf("%s: walSeq %d", label, got.WalSeq())
		}
		if _, cols := got.Support(); cols != compactStored {
			t.Fatalf("%s: Support reports %d stored rows after a load, want %d", label, cols, compactStored)
		}
		wantBitwise(t, label+" answers", queryBits(t, got, queries), queryBits(t, want, queries))
	}

	sparse, err := ReadIndex(bytes.NewReader(golden(t, goldenSparseV5)))
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Stored() != compactN || sparse.ids != nil {
		t.Fatalf("every-row fixture stores %d rows, ids %v", sparse.Stored(), sparse.ids)
	}
	twin := want.withFactor(nil, dense.TypedFromMat(want.denseF64()), nil)
	wantSameFactors(t, "every-row fixture", &sparse.IndexShard, &twin.IndexShard)

	sh, err := ReadShard(bytes.NewReader(golden(t, goldenCompactShardV5)))
	if err != nil {
		t.Fatal(err)
	}
	view, err := want.Shard(goldenCompactLo, goldenCompactHi)
	if err != nil {
		t.Fatal(err)
	}
	wantSameFactors(t, "shard file vs index view", sh, view)
	if sh.Stored() != 19 {
		t.Fatalf("shard stores %d rows, want 19 of [5, 30): 7, 11, …, 27 are implicit", sh.Stored())
	}
}

// TestGoldenWritersReproduceBytes is the writer half: every path that
// puts a snapshot on disk — WriteTo re-encoding each decoded v5 fixture
// and writing the indexes they were made from, and the publishes
// WriteSnapshot/WriteShardSnapshot over the fixture index at every tier —
// emits the fixture's exact bytes.
func TestGoldenWritersReproduceBytes(t *testing.T) {
	exact := goldenIndex(t)
	dir := t.TempDir()
	fileBytes := func(path string, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for name, data := range goldenV5(t) {
		wantSameBytes(t, "written "+name, data, golden(t, name))
	}
	for _, tier := range goldenTiers {
		wantIx, wantSh := golden(t, goldenIndexV5(tier)), golden(t, goldenShardV5(tier))

		decoded, err := ReadIndex(bytes.NewReader(wantIx))
		if err != nil {
			t.Fatal(err)
		}
		decodedSh, err := ReadShard(bytes.NewReader(wantSh))
		if err != nil {
			t.Fatal(err)
		}
		var ib, sb bytes.Buffer
		if _, err := decoded.WriteTo(&ib); err != nil {
			t.Fatal(err)
		}
		if _, err := decodedSh.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		wantSameBytes(t, "re-encoded "+goldenIndexV5(tier), ib.Bytes(), wantIx)
		wantSameBytes(t, "re-encoded "+goldenShardV5(tier), sb.Bytes(), wantSh)

		q, err := exact.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := q.Shard(goldenLo, goldenHi)
		if err != nil {
			t.Fatal(err)
		}
		name := tier.String()
		_, p, err := WriteSnapshot(filepath.Join(dir, "snap-"+name), q)
		wantSameBytes(t, "WriteSnapshot "+name, fileBytes(p, err), wantIx)
		_, p, err = WriteShardSnapshot(ShardDir(filepath.Join(dir, "snap-"+name), 0), qs)
		wantSameBytes(t, "WriteShardSnapshot "+name, fileBytes(p, err), wantSh)
	}
}

// TestGoldenWritersPortableEncoder holds the two float64 (and the two
// int32: ids, and the graph's offsets and sources) section encoders to each
// other: a little-endian host writes a section's own memory, any other host
// encodes it element by element, and both must emit the golden bytes —
// re-encoding a decoded fixture, and writing each fixture from the graph it
// was built from. The portable encoder is reached here by telling the
// writer the host is not little-endian.
func TestGoldenWritersPortableEncoder(t *testing.T) {
	defer func(le bool) { nativeLE = le }(nativeLE)
	for _, le := range []bool{true, false} {
		nativeLE = le
		for name, data := range goldenV5(t) {
			wantSameBytes(t, fmt.Sprintf("%s written with nativeLE=%v", name, le), data, golden(t, name))
		}
		for name, k := range goldenV5Files() {
			want := golden(t, name)
			ix, err := readSnapshot(bytes.NewReader(want), k, 0)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if k.whole {
				_, err = ix.WriteTo(&buf)
			} else {
				_, err = ix.IndexShard.WriteTo(&buf)
			}
			if err != nil {
				t.Fatal(err)
			}
			wantSameBytes(t, fmt.Sprintf("%s re-encoded with nativeLE=%v", name, le), buf.Bytes(), want)
		}
	}
}

// TestGoldenKindsDoNotCross pins that the shared reader still keeps the
// two headers apart: every v5 fixture loads as its own kind, through the
// stream reader and the file loader, and is ErrCorrupt as the other; every
// v3 and v4 fixture is ErrFormat as its own kind — refused, not corrupt —
// and ErrCorrupt as the other.
func TestGoldenKindsDoNotCross(t *testing.T) {
	v3 := goldenStaleFiles()
	for name, kind := range goldenFiles() {
		data := golden(t, name)
		path := filepath.Join("testdata", name)
		_, ierr := ReadIndex(bytes.NewReader(data))
		_, serr := ReadShard(bytes.NewReader(data))
		ix, lierr := LoadIndex(path)
		if lierr == nil {
			ix.Close()
		}
		_, lserr := LoadShard(path)
		own, other := []error{ierr, lierr}, []error{serr, lserr}
		if kind == shardKind {
			own, other = other, own
		}
		for _, err := range own {
			if _, stale := v3[name]; stale && (!errors.Is(err, ErrFormat) || errors.Is(err, ErrCorrupt)) {
				t.Errorf("%s as its own kind: err = %v, want wrapped ErrFormat alone", name, err)
			} else if !stale && err != nil {
				t.Errorf("%s as its own kind: %v", name, err)
			}
		}
		for _, err := range other {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s as the other kind: err = %v, want wrapped ErrCorrupt", name, err)
			}
		}
	}
}
