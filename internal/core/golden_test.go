package core

// golden_test.go holds the on-disk format to checked-in fixtures, so a
// writer and a reader that drift together still fail: testdata/ was
// generated from the paper's 6-node graph (rank 3, walSeq 7, shard rows
// [2, 5)) by the commit BEFORE the persistence twins were collapsed, with
// the v1 writers that no longer exist. `go test ./internal/core -run
// Golden -update` rewrites the fixtures from the current code — only ever
// on a deliberate format change, since the test then proves nothing
// about the bytes already on operators' disks.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ golden snapshot files from the current writers")

const (
	goldenWalSeq       = 7
	goldenLo, goldenHi = 2, 5
	goldenIndexV1      = "index.v1.csrx"
	goldenShardV1      = "shard.v1.csrs"
)

var goldenTiers = []Tier{TierF64, TierF32, TierI8}

func goldenIndexV2(tier Tier) string { return "index.v2-" + tier.String() + ".csrx" }
func goldenShardV2(tier Tier) string { return "shard.v2-" + tier.String() + ".csrs" }

// goldenFiles lists every fixture with its kind, for the fuzz seeds and
// the sweep tests.
func goldenFiles() map[string]*snapKind {
	files := map[string]*snapKind{goldenIndexV1: indexKind, goldenShardV1: shardKind}
	for _, tier := range goldenTiers {
		files[goldenIndexV2(tier)] = indexKind
		files[goldenShardV2(tier)] = shardKind
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

func wantSameFactors(t *testing.T, label string, got, want *IndexShard) {
	t.Helper()
	if got.n != want.n || got.lo != want.lo || got.hi != want.hi || got.rank != want.rank || got.c != want.c {
		t.Fatalf("%s: header %d [%d, %d) r=%d c=%v, want %d [%d, %d) r=%d c=%v", label,
			got.n, got.lo, got.hi, got.rank, got.c, want.n, want.lo, want.hi, want.rank, want.c)
	}
	wantBitwise(t, label+" Z", got.z.F64, want.z.F64)
	wantBitwise(t, label+" U", got.u.F64, want.u.F64)
}

// TestGoldenUpdate regenerates the fixtures under -update and is a no-op
// otherwise.
func TestGoldenUpdate(t *testing.T) {
	if !*updateGolden {
		t.Skip("fixtures are refreshed only by an explicit -update")
	}
	ix := buildIndex(t)
	ix.SetWalSeq(goldenWalSeq)
	put := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := ix.Shard(goldenLo, goldenHi)
	if err != nil {
		t.Fatal(err)
	}
	put(goldenIndexV1, v1IndexBytes(ix))
	put(goldenShardV1, v1ShardBytes(sh))
	for _, tier := range goldenTiers {
		q, err := ix.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := q.Shard(goldenLo, goldenHi)
		if err != nil {
			t.Fatal(err)
		}
		var ib, sb bytes.Buffer
		if _, err := q.WriteToV2(&ib); err != nil {
			t.Fatal(err)
		}
		if _, err := qs.WriteToV2(&sb); err != nil {
			t.Fatal(err)
		}
		put(goldenIndexV2(tier), ib.Bytes())
		put(goldenShardV2(tier), sb.Bytes())
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
// puts a snapshot on disk — WriteToV2 re-encoding each decoded v2
// fixture, and SaveIndex/SaveShard/WriteSnapshot/WriteShardSnapshot
// over the fixture index at every tier — emits the fixture's exact bytes.
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
	for _, tier := range goldenTiers {
		wantIx, wantSh := golden(t, goldenIndexV2(tier)), golden(t, goldenShardV2(tier))

		decoded, err := ReadIndex(bytes.NewReader(wantIx))
		if err != nil {
			t.Fatal(err)
		}
		decodedSh, err := ReadShard(bytes.NewReader(wantSh))
		if err != nil {
			t.Fatal(err)
		}
		var ib, sb bytes.Buffer
		if _, err := decoded.WriteToV2(&ib); err != nil {
			t.Fatal(err)
		}
		if _, err := decodedSh.WriteToV2(&sb); err != nil {
			t.Fatal(err)
		}
		wantSameBytes(t, "re-encoded "+goldenIndexV2(tier), ib.Bytes(), wantIx)
		wantSameBytes(t, "re-encoded "+goldenShardV2(tier), sb.Bytes(), wantSh)

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

// TestGoldenWritersPortableEncoder holds the two float64 section encoders
// to each other: a little-endian host writes a section's own memory, any
// other host encodes it element by element, and both must emit the golden
// bytes. The portable encoder is reached here by telling the writer the
// host is not little-endian.
func TestGoldenWritersPortableEncoder(t *testing.T) {
	defer func(le bool) { nativeLE = le }(nativeLE)
	for _, le := range []bool{true, false} {
		nativeLE = le
		for _, tier := range goldenTiers {
			for name, k := range map[string]*snapKind{goldenIndexV2(tier): indexKind, goldenShardV2(tier): shardKind} {
				want := golden(t, name)
				ix, err := readSnapshot(bytes.NewReader(want), k, 0)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if k.whole {
					_, err = ix.WriteToV2(&buf)
				} else {
					_, err = ix.IndexShard.WriteToV2(&buf)
				}
				if err != nil {
					t.Fatal(err)
				}
				wantSameBytes(t, fmt.Sprintf("%s re-encoded with nativeLE=%v", name, le), buf.Bytes(), want)
			}
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
