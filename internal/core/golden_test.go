package core

// golden_test.go holds the on-disk format to checked-in fixtures, so a
// writer and a reader that drift together still fail. The v3 files in
// testdata/ were written by the last writer of the two-factor format from
// the paper's 6-node graph (rank 3, walSeq 7, shard rows [2, 5)) and from
// compactIndex's graph; nothing can rewrite them, ConvertIndex is held to
// them, and every loader must refuse them as stale (ErrFormat). The v4
// files hold the exact v3 index as converted (so no build stands between
// the two), its f32 and int8 tiers, and the compacted pair; `go test
// ./internal/core -run Golden -update` rewrites those from the current
// writer — only ever on a deliberate format change, since the test then
// proves nothing about the bytes already on operators' disks.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
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
	goldenCompactV4                  = "index.v4-compact.csrx"
	goldenCompactShardV4             = "shard.v4-compact.csrs"
	goldenSparseV4                   = "index.v4-sparse.csrx"
	goldenCompactLo, goldenCompactHi = 5, 30
	compactN, compactStored          = 48, 36

	// The two-factor fixtures the converter and the stale rule are held
	// to: the 6-node index exact and at int8, one shard of it, and the
	// compacted index.
	goldenIndexV3        = "index.v3-f64.csrx"
	goldenIndexV3Int8    = "index.v3-int8.csrx"
	goldenShardV3        = "shard.v3-f64.csrs"
	goldenCompactIndexV3 = "index.v3-compact.csrx"
)

var goldenTiers = []Tier{TierF64, TierF32, TierI8}

func goldenIndexV4(tier Tier) string { return "index.v4-" + tier.String() + ".csrx" }
func goldenShardV4(tier Tier) string { return "shard.v4-" + tier.String() + ".csrs" }

// goldenFiles lists every fixture with its kind, for the fuzz seeds and
// the sweep tests.
func goldenFiles() map[string]*snapKind {
	files := goldenV4Files()
	for name, k := range goldenV3Files() {
		files[name] = k
	}
	return files
}

// goldenV4Files lists the fixtures the current writer must reproduce.
func goldenV4Files() map[string]*snapKind {
	files := map[string]*snapKind{goldenCompactV4: indexKind, goldenCompactShardV4: shardKind, goldenSparseV4: indexKind}
	for _, tier := range goldenTiers {
		files[goldenIndexV4(tier)] = indexKind
		files[goldenShardV4(tier)] = shardKind
	}
	return files
}

// goldenV3Files lists the two-factor fixtures every loader refuses.
func goldenV3Files() map[string]*snapKind {
	return map[string]*snapKind{goldenIndexV3: indexKind, goldenIndexV3Int8: indexKind, goldenShardV3: shardKind, goldenCompactIndexV3: indexKind}
}

func golden(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// goldenIndex converts the exact-tier v3 index fixture: the index every v4
// fixture but the compacted pair was cut or quantized from.
func goldenIndex(tb testing.TB) *Index {
	tb.Helper()
	ix, err := ConvertIndex(filepath.Join("testdata", goldenIndexV3))
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

// goldenV4 renders every v4 fixture from the current writer: the v3
// fixture's index converted and encoded at each tier, the compacted pair,
// and the compacted index with its zero rows spread back in.
func goldenV4(t *testing.T) map[string][]byte {
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
	for _, tier := range goldenTiers {
		q, err := exact.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		pair(q, goldenLo, goldenHi, goldenIndexV4(tier), goldenShardV4(tier))
	}
	compact := compactIndex(t)
	pair(compact, goldenCompactLo, goldenCompactHi, goldenCompactV4, goldenCompactShardV4)
	put(goldenSparseV4, compact.withFactor(nil, dense.TypedFromMat(compact.denseF64()), nil).WriteTo)
	return out
}

// TestGoldenUpdate regenerates the v4 fixtures under -update and is a
// no-op otherwise.
func TestGoldenUpdate(t *testing.T) {
	if !*updateGolden {
		t.Skip("fixtures are refreshed only by an explicit -update")
	}
	for name, data := range goldenV4(t) {
		if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// v3Answers is what a two-factor v3 index file served: I + c·Z·U_Qᵀ over
// its stored rows, Q's columns for the given queries, from the file's own
// Z and U.
func v3Answers(t *testing.T, name string, queries []int) []float64 {
	t.Helper()
	f, err := parsePaged(golden(t, name), indexKind, true)
	if err != nil || f.version != indexVersion3 || f.tier != TierF64 {
		t.Fatalf("%s: parsed as v%d at %v: %v", name, f.version, f.tier, err)
	}
	ix, base, err := f.fromImage(indexKind, false)
	if err != nil {
		t.Fatal(err)
	}
	r := int(f.rank)
	z := dense.NewMatFrom(int(f.stored), r, f.f64Of(base+4, false))
	u := dense.NewMatFrom(int(f.stored), r, f.f64Of(base+5, false))
	out := make([]float64, ix.n*len(queries))
	for j, q := range queries {
		out[q*len(queries)+j] = 1
		at, ok := ix.row(q)
		if !ok {
			continue
		}
		for i := 0; i < int(f.stored); i++ {
			out[ix.StoredNode(i)*len(queries)+j] += ix.c * dense.Dot(z.Row(i), u.Row(at))
		}
	}
	return out
}

// TestGoldenV3ConvertsLikeV4 holds ConvertIndex to the two-factor files:
// the exact v3 index and the compacted one convert to one factor that
// serves their scores to rounding, carry their metadata, and — the 6-node
// one — is bit for bit the v4 fixture written from it. A quantized v3 file
// is refused as a format, not as corruption.
func TestGoldenV3ConvertsLikeV4(t *testing.T) {
	for name, queries := range map[string][]int{goldenIndexV3: {0, 1, 3, 5}, goldenCompactIndexV3: {0, 3, 7, 47, 9}} {
		ix, err := ConvertIndex(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		want := v3Answers(t, name, queries)
		for i, v := range queryBits(t, ix, queries) {
			if d := math.Abs(v - want[i]); !(d <= 1e-13) {
				t.Fatalf("%s: converted score %d = %v, the v3 file's %v: differs by %g, more than rounding", name, i, v, want[i], d)
			}
		}
		if ix.WalSeq() != goldenWalSeq || ix.Build() == 0 || ix.ClampBound() != 0 {
			t.Fatalf("%s: walSeq %d, build %x, clamp %v", name, ix.WalSeq(), ix.Build(), ix.ClampBound())
		}
	}
	v4, err := ReadIndex(bytes.NewReader(golden(t, goldenIndexV4(TierF64))))
	if err != nil {
		t.Fatal(err)
	}
	ix := goldenIndex(t)
	wantSameFactors(t, "converted v3 vs v4 fixture", &ix.IndexShard, &v4.IndexShard)
	wantBitwise(t, "sigma", ix.sigma, v4.sigma)
	if ix.iters != v4.iters || ix.walSeq != v4.walSeq {
		t.Fatalf("converted: iters %d walSeq %d, the v4 fixture %d and %d", ix.iters, ix.walSeq, v4.iters, v4.walSeq)
	}
	if _, err := ConvertIndex(filepath.Join("testdata", goldenIndexV3Int8)); !errors.Is(err, ErrFormat) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("int8 v3 file: err = %v, want ErrFormat alone", err)
	}
	again, err := ConvertIndex(filepath.Join("testdata", goldenIndexV4(TierF64)))
	if err != nil {
		t.Fatal(err)
	}
	wantSameFactors(t, "a v4 file through ConvertIndex", &again.IndexShard, &v4.IndexShard)
}

// TestGoldenV3Compact reads the fixture that leaves rows out: the decoder,
// the mapper and the index the file was written from hold the same 36 rows
// and answer alike, and its shard file is rows [5, 30) of it. The v3 file
// of the same graph and options, written with two factors, converts to the
// rows the fresh build stores and to its scores within rounding.
func TestGoldenV3Compact(t *testing.T) {
	want := compactIndex(t)
	if want.Stored() != compactStored || want.ids == nil {
		t.Fatalf("fixture stores %d of %d rows (ids %v), want %d listed", want.Stored(), want.N(), want.ids, compactStored)
	}
	path := filepath.Join("testdata", goldenCompactV4)
	decoded, err := ReadIndex(bytes.NewReader(golden(t, goldenCompactV4)))
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

	old, err := ConvertIndex(filepath.Join("testdata", goldenCompactIndexV3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old.ids, want.ids) {
		t.Fatalf("v3 fixture, converted: stores rows %v, the fresh build %v", old.ids, want.ids)
	}
	sparse, err := ReadIndex(bytes.NewReader(golden(t, goldenSparseV4)))
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Stored() != compactN || sparse.ids != nil {
		t.Fatalf("every-row fixture stores %d rows, ids %v", sparse.Stored(), sparse.ids)
	}
	wantSameFactors(t, "every-row fixture, compacted", &sparse.Compact().IndexShard, &want.IndexShard)
	oldAnswers := queryBits(t, old, queries)
	for i, v := range queryBits(t, want, queries) {
		if d := math.Abs(v - oldAnswers[i]); !(d <= 1e-12) {
			t.Fatalf("score %d = %v, the converted v3 file's %v: differs by %g, more than rounding", i, v, oldAnswers[i], d)
		}
	}

	sh, err := ReadShard(bytes.NewReader(golden(t, goldenCompactShardV4)))
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
// puts a snapshot on disk — WriteTo re-encoding each decoded v4 fixture
// and writing the indexes they were made from, and SaveIndex/SaveShard/
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
	for name, data := range goldenV4(t) {
		wantSameBytes(t, "written "+name, data, golden(t, name))
	}
	for _, tier := range goldenTiers {
		wantIx, wantSh := golden(t, goldenIndexV4(tier)), golden(t, goldenShardV4(tier))

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
		wantSameBytes(t, "re-encoded "+goldenIndexV4(tier), ib.Bytes(), wantIx)
		wantSameBytes(t, "re-encoded "+goldenShardV4(tier), sb.Bytes(), wantSh)

		q, err := exact.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := q.Shard(goldenLo, goldenHi)
		if err != nil {
			t.Fatal(err)
		}
		name := tier.String()
		p := filepath.Join(dir, name+".csrx")
		wantSameBytes(t, "SaveIndex "+name, fileBytes(p, SaveIndex(q, p)), wantIx)
		p = filepath.Join(dir, name+".csrs")
		wantSameBytes(t, "SaveShard "+name, fileBytes(p, SaveShard(qs, p)), wantSh)
		_, p, err = WriteSnapshot(filepath.Join(dir, "snap-"+name), q)
		wantSameBytes(t, "WriteSnapshot "+name, fileBytes(p, err), wantIx)
		_, p, err = WriteShardSnapshot(ShardDir(filepath.Join(dir, "snap-"+name), 0), qs)
		wantSameBytes(t, "WriteShardSnapshot "+name, fileBytes(p, err), wantSh)
	}
}

// TestGoldenWritersPortableEncoder holds the two float64 (and the two ids)
// section encoders to each other: a little-endian host writes a section's
// own memory, any other host encodes it element by element, and both must
// emit the golden bytes. The portable encoder is reached here by telling
// the writer the host is not little-endian.
func TestGoldenWritersPortableEncoder(t *testing.T) {
	defer func(le bool) { nativeLE = le }(nativeLE)
	for _, le := range []bool{true, false} {
		nativeLE = le
		for name, k := range goldenV4Files() {
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
// two headers apart: every v4 fixture loads as its own kind, through the
// stream reader and the file loader, and is ErrCorrupt as the other; every
// v3 fixture is ErrFormat as its own kind — refused, not corrupt — and
// ErrCorrupt as the other.
func TestGoldenKindsDoNotCross(t *testing.T) {
	v3 := goldenV3Files()
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
