package core

// golden_test.go holds the on-disk format to checked-in fixtures, so a
// writer and a reader that drift together still fail. The v1 and v2 files
// in testdata/ were generated from the paper's 6-node graph (rank 3, walSeq
// 7, shard rows [2, 5)) by the commit BEFORE the persistence twins were
// collapsed, with writers that no longer exist: nothing can rewrite them,
// and the readers are held to them forever. The v3 files hold the same
// index (decoded from the v2 fixture, so no build stands between the two)
// plus one that leaves rows out; `go test ./internal/core -run Golden
// -update` rewrites those from the current writer — only ever on a
// deliberate format change, since the test then proves nothing about the
// bytes already on operators' disks.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
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
	goldenIndexV1      = "index.v1.csrx"
	goldenShardV1      = "shard.v1.csrs"

	// The compacted pair: compactIndex's 48-node index, which stores 36
	// rows, and its rows [5, 30). goldenSparseV2 is that index as the last
	// commit that wrote v2 saved it (PR 20's SaveIndex over the same graph
	// and options): every row stored, twelve of them all zero.
	goldenCompactV3                  = "index.v3-compact.csrx"
	goldenCompactShardV3             = "shard.v3-compact.csrs"
	goldenSparseV2                   = "index.v2-sparse.csrx"
	goldenCompactLo, goldenCompactHi = 5, 30
	compactN, compactStored          = 48, 36
)

var goldenTiers = []Tier{TierF64, TierF32, TierI8}

func goldenIndexV2(tier Tier) string { return "index.v2-" + tier.String() + ".csrx" }
func goldenShardV2(tier Tier) string { return "shard.v2-" + tier.String() + ".csrs" }
func goldenIndexV3(tier Tier) string { return "index.v3-" + tier.String() + ".csrx" }
func goldenShardV3(tier Tier) string { return "shard.v3-" + tier.String() + ".csrs" }

// goldenFiles lists every fixture with its kind, for the fuzz seeds and
// the sweep tests.
func goldenFiles() map[string]*snapKind {
	files := goldenV3Files()
	files[goldenIndexV1], files[goldenShardV1], files[goldenSparseV2] = indexKind, shardKind, indexKind
	for _, tier := range goldenTiers {
		files[goldenIndexV2(tier)] = indexKind
		files[goldenShardV2(tier)] = shardKind
	}
	return files
}

// goldenV3Files lists the fixtures the current writer must reproduce.
func goldenV3Files() map[string]*snapKind {
	files := map[string]*snapKind{goldenCompactV3: indexKind, goldenCompactShardV3: shardKind}
	for _, tier := range goldenTiers {
		files[goldenIndexV3(tier)] = indexKind
		files[goldenShardV3(tier)] = shardKind
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

// goldenIndex decodes the exact-tier v2 index fixture: the index every
// other fixture was cut or quantized from.
func goldenIndex(tb testing.TB) *Index {
	tb.Helper()
	ix, err := ReadIndex(bytes.NewReader(golden(tb, goldenIndexV2(TierF64))))
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// v1Bytes is the reference encoder of the decode-only v1 layout, for
// tests and benchmarks that need a v1 image of an index other than the
// fixture. TestGoldenV1Encoder holds it to the bytes the deleted
// production writers produced.
func v1Bytes(k *snapKind, words []uint64, blocks ...[]float64) []byte {
	le := binary.LittleEndian
	buf := append([]byte(nil), k.magic[:]...)
	buf = le.AppendUint32(buf, indexVersion)
	for _, w := range words {
		buf = le.AppendUint64(buf, w)
	}
	for _, block := range blocks {
		for _, v := range block {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
}

func v1IndexBytes(ix *Index) []byte {
	words := []uint64{uint64(ix.n), uint64(ix.rank), math.Float64bits(ix.c), uint64(ix.iters)}
	return v1Bytes(indexKind, words, ix.sigma, ix.z.F64, ix.u.F64)
}

func v1ShardBytes(sh *IndexShard) []byte {
	words := []uint64{uint64(sh.n), uint64(sh.lo), uint64(sh.hi), uint64(sh.rank), math.Float64bits(sh.c)}
	return v1Bytes(shardKind, words, sh.z.F64, sh.u.F64)
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
	if got.n != want.n || got.lo != want.lo || got.hi != want.hi || got.rank != want.rank || got.c != want.c {
		t.Fatalf("%s: header %d [%d, %d) r=%d c=%v, want %d [%d, %d) r=%d c=%v", label,
			got.n, got.lo, got.hi, got.rank, got.c, want.n, want.lo, want.hi, want.rank, want.c)
	}
	if !reflect.DeepEqual(got.ids, want.ids) {
		t.Fatalf("%s: stores rows %v, want %v", label, got.ids, want.ids)
	}
	for name, pair := range map[string][2]*dense.Typed{"Z": {got.z, want.z}, "U": {got.u, want.u}} {
		if !reflect.DeepEqual(pair[0].F32, pair[1].F32) || !reflect.DeepEqual(pair[0].I8, pair[1].I8) {
			t.Fatalf("%s: %s codes differ", label, name)
		}
		wantBitwise(t, label+" "+name, pair[0].F64, pair[1].F64)
		wantBitwise(t, label+" "+name+" scale", pair[0].Scale, pair[1].Scale)
	}
	wantBitwise(t, label+" zqerr", got.zqerr, want.zqerr)
	wantBitwise(t, label+" uqerr", got.uqerr, want.uqerr)
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

// goldenV3 renders every v3 fixture from the current writer: the v2
// fixture's index re-encoded at each tier, and the compacted pair.
func goldenV3(t *testing.T) map[string][]byte {
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
		pair(q, goldenLo, goldenHi, goldenIndexV3(tier), goldenShardV3(tier))
	}
	pair(compactIndex(t), goldenCompactLo, goldenCompactHi, goldenCompactV3, goldenCompactShardV3)
	return out
}

// TestGoldenUpdate regenerates the v3 fixtures under -update and is a
// no-op otherwise.
func TestGoldenUpdate(t *testing.T) {
	if !*updateGolden {
		t.Skip("fixtures are refreshed only by an explicit -update")
	}
	for name, data := range goldenV3(t) {
		if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenV2DecodesLikeV3 pins v2 decode the way v1's is pinned: at every
// tier the v2 and v3 files of one index (and of one shard) decode to
// bitwise-equal factors and the same metadata, every row stored.
func TestGoldenV2DecodesLikeV3(t *testing.T) {
	for _, tier := range goldenTiers {
		for v2, v3 := range map[string]string{goldenIndexV2(tier): goldenIndexV3(tier), goldenShardV2(tier): goldenShardV3(tier)} {
			k := goldenFiles()[v2]
			old, err := readSnapshot(bytes.NewReader(golden(t, v2)), k, 0)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := readSnapshot(bytes.NewReader(golden(t, v3)), k, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantSameFactors(t, v2+" vs "+v3, &old.IndexShard, &cur.IndexShard)
			if old.ids != nil || old.Stored() != old.Rows() {
				t.Fatalf("%s: stores %d of %d rows, ids %v", v2, old.Stored(), old.Rows(), old.ids)
			}
			if old.iters != cur.iters || old.walSeq != cur.walSeq {
				t.Fatalf("%s: iters %d walSeq %d, %s has %d and %d", v2, old.iters, old.walSeq, v3, cur.iters, cur.walSeq)
			}
			wantBitwise(t, v2+" sigma", old.sigma, cur.sigma)
		}
	}
}

// TestGoldenV3Compact reads the fixture that leaves rows out: the decoder,
// the mapper and the index the file was written from hold the same 36 rows
// and answer alike, and its shard file is rows [5, 30) of it. The v2 file
// of the same graph and options, written when every row had to be stored,
// predates CholeskyQR2 in phase I: it answers the fresh build's scores to
// rounding, and compacting it leaves out exactly the rows the fresh build
// leaves out and writes a file that answers its bits.
func TestGoldenV3Compact(t *testing.T) {
	want := compactIndex(t)
	if want.Stored() != compactStored || want.ids == nil {
		t.Fatalf("fixture stores %d of %d rows (ids %v), want %d listed", want.Stored(), want.N(), want.ids, compactStored)
	}
	path := filepath.Join("testdata", goldenCompactV3)
	decoded, err := ReadIndex(bytes.NewReader(golden(t, goldenCompactV3)))
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

	old, err := ReadIndex(bytes.NewReader(golden(t, goldenSparseV2)))
	if err != nil {
		t.Fatal(err)
	}
	if old.Stored() != compactN || old.ids != nil {
		t.Fatalf("v2 file stores %d rows, ids %v: want every row, unlisted", old.Stored(), old.ids)
	}
	oldAnswers := queryBits(t, old, queries)
	for i, v := range queryBits(t, want, queries) {
		if d := math.Abs(v - oldAnswers[i]); !(d <= 1e-12) {
			t.Fatalf("score %d = %v, the v2 file's %v: differs by %g, more than rounding", i, v, oldAnswers[i], d)
		}
	}
	var buf bytes.Buffer
	if _, err := old.Compact().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.ids, want.ids) {
		t.Fatalf("v2 fixture, compacted: stores rows %v, the fresh build %v", back.ids, want.ids)
	}
	wantBitwise(t, "v2 fixture, compacted, written and read back", queryBits(t, back, queries), oldAnswers)

	sh, err := ReadShard(bytes.NewReader(golden(t, goldenCompactShardV3)))
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

// TestGoldenV1DecodesLikeV2 pins v1 decode against the fixtures the old
// writers left: the v1 and exact v2 files of one index (and of one shard)
// decode to bitwise-equal factors and the same metadata.
func TestGoldenV1DecodesLikeV2(t *testing.T) {
	ix := goldenIndex(t)
	old, err := ReadIndex(bytes.NewReader(golden(t, goldenIndexV1)))
	if err != nil {
		t.Fatal(err)
	}
	wantSameFactors(t, "index v1 vs v2", &old.IndexShard, &ix.IndexShard)
	if old.Iterations() != ix.Iterations() {
		t.Fatalf("v1 iters %d, v2 %d", old.Iterations(), ix.Iterations())
	}
	wantBitwise(t, "sigma", old.SingularValues(), ix.SingularValues())
	if old.WalSeq() != 0 || ix.WalSeq() != goldenWalSeq {
		t.Fatalf("walSeq v1 %d (want 0: predates the field), v2 %d (want %d)", old.WalSeq(), ix.WalSeq(), goldenWalSeq)
	}

	sh, err := ReadShard(bytes.NewReader(golden(t, goldenShardV2(TierF64))))
	if err != nil {
		t.Fatal(err)
	}
	oldSh, err := ReadShard(bytes.NewReader(golden(t, goldenShardV1)))
	if err != nil {
		t.Fatal(err)
	}
	wantSameFactors(t, "shard v1 vs v2", oldSh, sh)
	// And the shard files hold exactly rows [lo, hi) of the index files.
	view, err := ix.Shard(goldenLo, goldenHi)
	if err != nil {
		t.Fatal(err)
	}
	wantSameFactors(t, "shard file vs index view", sh, view)
}

// TestGoldenV1Encoder ties the test-only v1 encoder to the bytes the
// deleted production writers produced.
func TestGoldenV1Encoder(t *testing.T) {
	ix := goldenIndex(t)
	wantSameBytes(t, goldenIndexV1, v1IndexBytes(ix), golden(t, goldenIndexV1))
	sh, err := ix.Shard(goldenLo, goldenHi)
	if err != nil {
		t.Fatal(err)
	}
	wantSameBytes(t, goldenShardV1, v1ShardBytes(sh), golden(t, goldenShardV1))
}

// TestGoldenWritersReproduceBytes is the writer half: every path that
// puts a snapshot on disk — WriteTo re-encoding each decoded v3 fixture
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
	for name, data := range goldenV3(t) {
		wantSameBytes(t, "written "+name, data, golden(t, name))
	}
	for _, tier := range goldenTiers {
		wantIx, wantSh := golden(t, goldenIndexV3(tier)), golden(t, goldenShardV3(tier))

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
		wantSameBytes(t, "re-encoded "+goldenIndexV3(tier), ib.Bytes(), wantIx)
		wantSameBytes(t, "re-encoded "+goldenShardV3(tier), sb.Bytes(), wantSh)

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
		for name, k := range goldenV3Files() {
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
// two headers apart: every fixture loads as its own kind, through the
// stream reader and the file loader, and is ErrCorrupt as the other.
func TestGoldenKindsDoNotCross(t *testing.T) {
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
			if err != nil {
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
