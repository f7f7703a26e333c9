package core

// persist2_test.go pins the contract of the page-aligned snapshot layout
// (written as v4; the TestV2 names date from its first version): mapped
// and decoded engines answer bitwise-identically; every forgery the layout
// can express is rejected as ErrCorrupt, and an older format as ErrFormat;
// quantized tiers round-trip with their measured error vectors intact;
// rows an index leaves out stay out.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"csrplus/internal/dense"
)

// repatchHeaderCRC makes a forged header self-consistent so the
// validation under test — not the header checksum — rejects it.
func repatchHeaderCRC(data []byte) {
	binary.LittleEndian.PutUint32(data[headerCRCOff:], crc32.ChecksumIEEE(data[:headerCRCOff]))
}

// writeSnapFile publishes ix as generation 1 of a fresh snapshot
// directory and returns the file's path.
func writeSnapFile(t testing.TB, ix *Index) string {
	t.Helper()
	_, path, err := WriteSnapshot(t.TempDir(), ix)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// writeShardFile is writeSnapFile for a shard.
func writeShardFile(t testing.TB, sh *IndexShard) string {
	t.Helper()
	_, path, err := WriteShardSnapshot(t.TempDir(), sh)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func queryBits(t *testing.T, ix *Index, queries []int) []float64 {
	t.Helper()
	s, err := ix.Query(queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), s.Data...)
}

func wantBitwise(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %x, want %x (must be bitwise-identical)", label, i, got[i], want[i])
		}
	}
}

// TestV2RoundTripBitwise is the core property: an index written to disk
// then (a) decoded through ReadIndex and (b) memory-mapped through
// MapIndex answers every query bitwise-identically to the original, and
// carries its build id.
func TestV2RoundTripBitwise(t *testing.T) {
	ix := buildIndex(t)
	queries := []int{0, 1, 3, ix.N() - 1}
	want := queryBits(t, ix, queries)

	path := writeSnapFile(t, ix)
	decoded, err := func() (*Index, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ReadIndex(f)
	}()
	if err != nil {
		t.Fatal(err)
	}
	wantBitwise(t, "v2 decode", queryBits(t, decoded, queries), want)
	if decoded.N() != ix.N() || decoded.Rank() != ix.Rank() || decoded.Build() != ix.Build() ||
		decoded.Damping() != ix.Damping() || decoded.Iterations() != ix.Iterations() {
		t.Fatal("v2 decode metadata mismatch")
	}
	sig := decoded.SingularValues()
	for i, s := range ix.SingularValues() {
		if sig[i] != s {
			t.Fatal("v2 decode singular values not preserved")
		}
	}

	mapped, err := MapIndex(path)
	if err != nil {
		if errors.Is(err, errMapUnsupported) {
			t.Skipf("mmap unavailable here: %v", err)
		}
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Fatal("MapIndex returned an unmapped index")
	}
	wantBitwise(t, "v2 mapped", queryBits(t, mapped, queries), want)
	pair := func(ix *Index) uint64 {
		s, err := ix.ScoreRows(context.Background(), []int{3}, ix.gatherF([]int{3}), []int{1})
		if err != nil {
			t.Fatal(err)
		}
		return math.Float64bits(s[0])
	}
	if pair(mapped) != pair(ix) {
		t.Fatal("mapped pair score differs")
	}
	if mapped.TruncationBound(2) != ix.TruncationBound(2) {
		t.Fatal("mapped truncation bound differs")
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal("double Close must be safe:", err)
	}
}

// TestLoadIndexRefusesStaleFormats pins that the default load path
// accepts what the default save path writes, and refuses a file of the
// two-factor format — an intact one, relabelled as such, and one cut to
// its first bytes — as ErrFormat, before reading or mapping the rest of it.
func TestLoadIndexRefusesStaleFormats(t *testing.T) {
	ix := buildIndex(t)
	queries := []int{2, 5}
	want := queryBits(t, ix, queries)

	path := writeSnapFile(t, ix)
	back, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	wantBitwise(t, "LoadIndex v4", queryBits(t, back, queries), want)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, 3} {
		old := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(old[4:], v)
		repatchHeaderCRC(old)
		for label, image := range map[string][]byte{"whole": old, "header words only": old[:8]} {
			p := filepath.Join(t.TempDir(), "old.csrx")
			if err := os.WriteFile(p, image, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadIndex(p); !errors.Is(err, ErrFormat) || errors.Is(err, ErrCorrupt) {
				t.Errorf("v%d file, %s: LoadIndex err = %v, want ErrFormat alone", v, label, err)
			}
			if _, err := ReadIndex(bytes.NewReader(image)); !errors.Is(err, ErrFormat) {
				t.Errorf("v%d stream, %s: ReadIndex err = %v, want ErrFormat", v, label, err)
			}
		}
	}
}

// TestV2CorruptionMatrix drives the forgeries ISSUE 8 names: truncated
// mapping, per-block CRC flip, misaligned section offset, and a forged
// offset overlapping the header — plus byte flips in header, payload and
// padding. Both readers (decode and map) must reject every one with a
// wrapped ErrCorrupt.
func TestV2CorruptionMatrix(t *testing.T) {
	ix := buildIndex(t)
	path := writeSnapFile(t, ix)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	// Section table offsets for the f section (index layout: sigma, ids,
	// fscale, fqerr, f — f is 4).
	zDesc := tableOff + 4*descSize
	zOff := le.Uint64(pristine[zDesc:])

	corruptions := map[string]func([]byte) []byte{
		"truncated mid-payload": func(d []byte) []byte { return d[:zOff+17] },
		"truncated header":      func(d []byte) []byte { return d[:100] },
		"empty":                 func(d []byte) []byte { return d[:0] },
		"payload CRC flip": func(d []byte) []byte {
			d[zOff+3] ^= 0x40
			return d
		},
		"padding flip": func(d []byte) []byte {
			// Last byte of the f section's padded extent — covered by the
			// section CRC precisely so tampering here cannot hide.
			d[alignPage(zOff+1)-1] ^= 0x01
			return d
		},
		"misaligned section offset": func(d []byte) []byte {
			le.PutUint64(d[zDesc:], zOff+8)
			repatchHeaderCRC(d)
			return d
		},
		"offset overlapping header": func(d []byte) []byte {
			le.PutUint64(d[zDesc:], 0)
			repatchHeaderCRC(d)
			return d
		},
		"header flip unpatched": func(d []byte) []byte {
			d[16] ^= 0xFF
			return d
		},
		"forged fileSize": func(d []byte) []byte {
			le.PutUint64(d[56:], uint64(len(d))+pageSize)
			repatchHeaderCRC(d)
			return d
		},
		"forged section count": func(d []byte) []byte {
			le.PutUint32(d[12:], 8) // a v3 index's
			repatchHeaderCRC(d)
			return d
		},
		"forged tier": func(d []byte) []byte {
			le.PutUint32(d[8:], 99)
			repatchHeaderCRC(d)
			return d
		},
		"forged iters": func(d []byte) []byte {
			le.PutUint64(d[40:], 1<<63)
			repatchHeaderCRC(d)
			return d
		},
		"NaN sigma": func(d []byte) []byte {
			sOff := le.Uint64(d[tableOff:])
			le.PutUint64(d[sOff:], math.Float64bits(math.NaN()))
			// Re-checksum the sigma section's padded extent too: the NaN
			// check, not the CRC, must fire.
			resealSection(d, tableOff, 0)
			return d
		},
		"forged version 0": func(d []byte) []byte {
			le.PutUint32(d[4:], 0)
			repatchHeaderCRC(d)
			return d
		},
		"forged version 6": func(d []byte) []byte {
			le.PutUint32(d[4:], 6)
			repatchHeaderCRC(d)
			return d
		},
		"forged stored count above n": func(d []byte) []byte {
			le.PutUint64(d[storedOff:], uint64(ix.N())+1)
			repatchHeaderCRC(d)
			return d
		},
		"forged stored count below n": func(d []byte) []byte {
			// Fewer rows than the factor section holds, and no ids for them.
			le.PutUint64(d[storedOff:], uint64(ix.N())-1)
			repatchHeaderCRC(d)
			return d
		},
		"NaN clamp charge": func(d []byte) []byte {
			le.PutUint64(d[clampOff:], math.Float64bits(math.NaN()))
			repatchHeaderCRC(d)
			return d
		},
		"negative clamp charge": func(d []byte) []byte {
			le.PutUint64(d[clampOff:], math.Float64bits(-1e-3))
			repatchHeaderCRC(d)
			return d
		},
	}
	dir := t.TempDir()
	for name, corrupt := range corruptions {
		data := corrupt(append([]byte(nil), pristine...))
		if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("decode %s: err = %v, want wrapped ErrCorrupt", name, err)
		}
		p := filepath.Join(dir, "bad.csrx")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if ix, err := MapIndex(p); err == nil {
			ix.Close()
			t.Errorf("map %s: mapped successfully, want rejection", name)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, errMapUnsupported) {
			t.Errorf("map %s: err = %v, want wrapped ErrCorrupt", name, err)
		}
		// The crash-recovery ladder must also refuse it, not serve it.
		if _, err := LoadIndex(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("load %s: err = %v, want wrapped ErrCorrupt", name, err)
		}
	}
}

// TestV2QuantizedRoundTrip saves each quantized tier and checks the
// loaded index preserves tier, answers, and the measured error vectors
// that make QuantizationBound valid after a reload.
func TestV2QuantizedRoundTrip(t *testing.T) {
	exact := buildIndex(t)
	queries := []int{0, 4}
	for _, tier := range []dense.Kind{dense.F32, dense.I8} {
		q, err := exact.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		if q.Tier() != tier {
			t.Fatalf("Quantize tier = %v, want %v", q.Tier(), tier)
		}
		want := queryBits(t, q, queries)
		wantBound := q.QuantizationBound()
		if wantBound <= 0 {
			t.Fatalf("%v: quantization bound %g, want > 0", tier, wantBound)
		}

		path := writeSnapFile(t, q)
		back, err := LoadIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.Tier() != tier {
			t.Fatalf("loaded tier = %v, want %v", back.Tier(), tier)
		}
		wantBitwise(t, tier.String(), queryBits(t, back, queries), want)
		if got := back.QuantizationBound(); got != wantBound {
			t.Fatalf("%v: loaded bound %g, want %g", tier, got, wantBound)
		}
		if got := back.TruncationBound(back.Rank()); got != wantBound {
			t.Fatalf("%v: full-rank TruncationBound %g, want quant bound %g", tier, got, wantBound)
		}
		// The quantized answers stay within the reported bound of the
		// exact answers — the acceptance criterion for the tiers.
		exactBits := queryBits(t, exact, queries)
		for i := range exactBits {
			if d := math.Abs(want[i] - exactBits[i]); d > wantBound {
				t.Fatalf("%v: entry %d deviates %g > bound %g", tier, i, d, wantBound)
			}
		}
		back.Close()
	}
	// Re-quantization would compound errors invisibly.
	q, _ := exact.Quantize(dense.I8)
	if _, err := q.Quantize(dense.F32); !errors.Is(err, ErrParams) {
		t.Fatalf("re-quantize: err = %v, want ErrParams", err)
	}
}

// TestV2ShardRoundTrip exercises the CSRS header: save/load a shard,
// bitwise-identical partials, and the same corruption discipline.
func TestV2ShardRoundTrip(t *testing.T) {
	ix := buildIndex(t)
	mid := ix.N() / 2
	sh, err := ix.Shard(mid, ix.N())
	if err != nil {
		t.Fatal(err)
	}
	path := writeShardFile(t, sh)
	back, err := LoadShard(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Mapped() != (mmapSupported && nativeLE) {
		t.Fatalf("LoadShard mapped = %v, want %v: a shard file maps wherever an index file does", back.Mapped(), mmapSupported && nativeLE)
	}
	if back.N() != sh.N() || back.Lo() != sh.Lo() || back.Hi() != sh.Hi() || back.Rank() != sh.Rank() {
		t.Fatal("shard metadata mismatch")
	}
	for i := sh.Lo(); i < sh.Hi(); i++ {
		a, b := sh.URow(i), back.URow(i)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("URow(%d)[%d] differs", i, j)
			}
		}
	}

	// Corrupt a factor byte: the load must refuse.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zOff := binary.LittleEndian.Uint64(data[tableOff+3*descSize:]) // ids, 2 metadata sections, f
	data[zOff+1] ^= 0x10
	bad := filepath.Join(t.TempDir(), "bad.csrs")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShard(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt shard load: err = %v, want wrapped ErrCorrupt", err)
	}
}

// TestV2QuantizedShardRoundTrip pins the quantized CSRS path, including
// the error vectors a router needs to recompose the bound.
func TestV2QuantizedShardRoundTrip(t *testing.T) {
	exact := buildIndex(t)
	q, err := exact.Quantize(dense.I8)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := q.Shard(0, q.N())
	if err != nil {
		t.Fatal(err)
	}
	if sh.Tier() != dense.I8 {
		t.Fatalf("shard tier = %v, want int8", sh.Tier())
	}
	back, err := LoadShard(writeShardFile(t, sh))
	if err != nil {
		t.Fatal(err)
	}
	if back.Tier() != dense.I8 {
		t.Fatalf("loaded shard tier = %v, want int8", back.Tier())
	}
	ferr := back.QuantErrs()
	wantBitwise(t, "quant error vector", ferr, sh.QuantErrs())
	if got, want := QuantBound(back.Damping(), back.ColMaxes(), ferr), q.QuantizationBound(); got != want {
		t.Fatalf("router-side QuantBound %g, want %g", got, want)
	}
}

// TestV2WalSeqRoundTrip pins the walSeq header field: preserved through
// the decode and map paths, and rejected on shard files, which never carry
// one.
func TestV2WalSeqRoundTrip(t *testing.T) {
	ix := buildIndex(t)
	ix.SetWalSeq(0xdeadbeef12)
	path := writeSnapFile(t, ix)

	decoded, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer decoded.Close()
	if decoded.WalSeq() != 0xdeadbeef12 {
		t.Fatalf("decoded walSeq %#x, want 0xdeadbeef12", decoded.WalSeq())
	}

	mapped, err := MapIndex(path)
	if err == nil {
		if mapped.WalSeq() != 0xdeadbeef12 {
			t.Fatalf("mapped walSeq %#x, want 0xdeadbeef12", mapped.WalSeq())
		}
		mapped.Close()
	} else if !errors.Is(err, errMapUnsupported) {
		t.Fatal(err)
	}

	// Shards never carry a WAL sequence; a forged one is corruption.
	sh, err := ix.Shard(0, ix.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if _, err := sh.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	sdata := sb.Bytes()
	binary.LittleEndian.PutUint64(sdata[walSeqOff:], 7)
	repatchHeaderCRC(sdata)
	if _, err := parsePaged(sdata, uint64(len(sdata)), shardKind); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged shard walSeq accepted: %v", err)
	}
}

// resealSection recomputes the checksum of section i of the table at
// tableOff over its padded extent, then the header's: a forged payload that
// only the validation under test can reject.
func resealSection(d []byte, tableOff, i int) {
	le := binary.LittleEndian
	desc := d[tableOff+i*descSize:]
	off, length := le.Uint64(desc), le.Uint64(desc[8:])
	le.PutUint32(desc[16:], crc32.ChecksumIEEE(d[off:alignPage(off+length)]))
	repatchHeaderCRC(d)
}

// TestCompactCorruptionMatrix is the corruption matrix of the stored-row
// count and the ids section, forged every way the layout can express over
// an index (and a shard) that leaves rows out. Decoder, mapper and loader
// must each refuse with a wrapped ErrCorrupt.
func TestCompactCorruptionMatrix(t *testing.T) {
	le := binary.LittleEndian
	// ids is section 1 of an index (behind sigma) and section 0 of a shard.
	setID := func(section, i int, id int32) func([]byte) []byte {
		return func(d []byte) []byte {
			off := le.Uint64(d[tableOff+section*descSize:])
			le.PutUint32(d[off+uint64(i)*4:], uint32(id))
			resealSection(d, tableOff, section)
			return d
		}
	}
	setStored := func(stored uint64) func([]byte) []byte {
		return func(d []byte) []byte {
			le.PutUint64(d[storedOff:], stored)
			repatchHeaderCRC(d)
			return d
		}
	}
	cases := []struct {
		name    string
		file    string
		corrupt func([]byte) []byte
	}{
		// The fixture stores rows 0 1 2 4 5 6 8 … 46: 36 of 48.
		{"ids flip under the section CRC", goldenCompactV5, func(d []byte) []byte {
			d[le.Uint64(d[tableOff+descSize:])+5] ^= 0x01
			return d
		}},
		{"ids out of order", goldenCompactV5, setID(1, 3, 1)},
		{"ids repeat", goldenCompactV5, setID(1, 3, 2)},
		{"id at n", goldenCompactV5, setID(1, compactStored-1, compactN)},
		{"id negative", goldenCompactV5, setID(1, 0, -1)},
		{"stored count above n", goldenCompactV5, setStored(compactN + 1)},
		{"stored count says every row", goldenCompactV5, setStored(compactN)},
		{"stored count below the ids", goldenCompactV5, setStored(compactStored - 1)},
		{"stored count zero", goldenCompactV5, setStored(0)},
		// The shard fixture is rows [5, 30): it stores 5 6 8 9 10 12 … 29.
		{"shard id below lo", goldenCompactShardV5, setID(0, 0, 4)},
		{"shard id at hi", goldenCompactShardV5, setID(0, 18, 30)},
		{"shard stored count above its rows", goldenCompactShardV5, setStored(26)},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		k := goldenFiles()[tc.file]
		data := tc.corrupt(golden(t, tc.file))
		if _, err := readSnapshot(bytes.NewReader(data), k, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("decode %s: err = %v, want wrapped ErrCorrupt", tc.name, err)
		}
		p := filepath.Join(dir, "bad")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if ix, err := loadSnapshot(p, k); !errors.Is(err, ErrCorrupt) {
			t.Errorf("load %s: err = %v, want wrapped ErrCorrupt", tc.name, err)
			if err == nil {
				ix.Close()
			}
		}
	}
}

// TestEmptyShardRoundTrip saves a cut that stores nothing — every node
// in it is implicit — and one that stores everything: the first comes back
// listing no rows (not "every row"), the second as the identity map.
func TestEmptyShardRoundTrip(t *testing.T) {
	ix := compactIndex(t)
	for _, cut := range []struct{ lo, hi, stored int }{{3, 4, 0}, {47, 48, 0}, {8, 11, 3}, {7, 8, 0}} {
		sh, err := ix.Shard(cut.lo, cut.hi)
		if err != nil {
			t.Fatal(err)
		}
		back, err := LoadShard(writeShardFile(t, sh))
		if err != nil {
			t.Fatalf("[%d, %d): %v", cut.lo, cut.hi, err)
		}
		wantSameFactors(t, fmt.Sprintf("[%d, %d)", cut.lo, cut.hi), back.IndexShard, sh)
		if back.Stored() != cut.stored || (back.ids == nil) != (cut.stored == cut.hi-cut.lo) {
			t.Fatalf("[%d, %d): %d rows stored, ids %v", cut.lo, cut.hi, back.Stored(), back.ids)
		}
		if err := back.CheckStored(); err != nil {
			t.Fatal(err)
		}
		for q := cut.lo; q < cut.hi; q++ {
			wantBitwise(t, fmt.Sprintf("URow(%d)", q), back.URow(q), ix.URow(q))
		}
	}
}
