package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func buildIndex(t *testing.T) *Index {
	t.Helper()
	ix, err := Precompute(paperGraph(t), Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestIndexRoundTrip(t *testing.T) {
	ix := buildIndex(t)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteToV2 reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ix.N() || back.Rank() != ix.Rank() || back.Damping() != ix.Damping() || back.Iterations() != ix.Iterations() {
		t.Fatalf("metadata mismatch: %+v vs %+v", back, ix)
	}
	// Queries through the deserialised index must be bit-identical.
	want, err := ix.Query([]int{1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Query([]int{1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatal("loaded index answers differently")
	}
	sig := back.SingularValues()
	for i, s := range ix.SingularValues() {
		if sig[i] != s {
			t.Fatal("singular values not preserved")
		}
	}
}

func TestSaveLoadIndexFile(t *testing.T) {
	ix := buildIndex(t)
	path := filepath.Join(t.TempDir(), "fb.csrx")
	if err := SaveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ix.N() {
		t.Fatal("load mismatch")
	}
}

func TestLoadIndexMissingFile(t *testing.T) {
	if _, err := LoadIndex(filepath.Join(t.TempDir(), "nope.csrx")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestReadIndexBadMagic(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("NOPExxxxxxxxxxxxxxxx"))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestReadIndexTruncated(t *testing.T) {
	full := golden(t, goldenIndexV4(TierF64))
	for _, cut := range []int{3, 5, 20, len(full) / 2, len(full) - 2} {
		if _, err := ReadIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestReadIndexBitFlip(t *testing.T) {
	data := golden(t, goldenIndexV4(TierF64))
	// Flip a payload bit (past the header) — the CRC must catch it.
	data[len(data)-20] ^= 0x40
	if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestReadIndexVersionMismatch(t *testing.T) {
	data := golden(t, goldenIndexV4(TierF64))
	data[4] = 99 // version byte; the check reads it before the header CRC
	if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestReadIndexImplausibleShape(t *testing.T) {
	data := golden(t, goldenIndexV4(TierF64))
	// Overwrite n (offset 16) with an absurd value under a valid header CRC.
	for i := 0; i < 8; i++ {
		data[16+i] = 0xFF
	}
	repatchHeaderCRC(data)
	if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestWriteToV2PropagatesWriteErrors(t *testing.T) {
	ix := buildIndex(t)
	if _, err := ix.WriteTo(failingWriter{}); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// TestReadIndexCorruptionMatrix truncates a valid index at (and just
// before) every boundary of the format — magic, version, each header word,
// the section table, the header CRC, sigma, the ids, F — and demands a
// wrapped ErrCorrupt every time, with no panic. This pins the contract the
// hot-reload validator relies on: any torn file a crashed writer could
// leave behind is rejected with one recognisable sentinel.
func TestReadIndexCorruptionMatrix(t *testing.T) {
	full := golden(t, goldenIndexV4(TierF64))
	ix := goldenIndex(t)
	n, r := ix.N(), ix.Rank()
	boundaries := map[string]int{
		"empty":          0,
		"after magic":    4,
		"after version":  8,
		"after n":        24,
		"after c":        40,
		"after the size": 64,
		"after clamp":    96,
		"after table":    tableOff + 5*descSize,
		"before hdr CRC": headerCRCOff,
		"after sigma":    pageSize + 8*r,
		"sigma padded":   2 * pageSize,
		"after F":        2*pageSize + 8*n*r,
	}
	if want := 2*pageSize + int(alignPage(uint64(8*n*r))); len(full) != want || ix.Stored() != n {
		t.Fatalf("serialised size %d, boundary math expects %d with every row stored (ids empty)", len(full), want)
	}
	for name, cut := range boundaries {
		for _, at := range []int{cut, cut - 1} {
			if at < 0 || at >= len(full) {
				continue
			}
			_, err := ReadIndex(bytes.NewReader(full[:at]))
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("truncated %s (%d bytes): err = %v, want wrapped ErrCorrupt", name, at, err)
			}
		}
	}
}

// TestReadIndexFlippedCRCByte corrupts the stored header checksum itself
// (the payload is intact) — the mismatch must still read as corruption.
func TestReadIndexFlippedCRCByte(t *testing.T) {
	data := golden(t, goldenIndexV4(TierF64))
	data[headerCRCOff] ^= 0x01
	if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestReadIndexFutureVersion pins forward-compatibility behaviour: a
// higher version is rejected as ErrCorrupt, not misparsed as v4.
func TestReadIndexFutureVersion(t *testing.T) {
	data := golden(t, goldenIndexV4(TierF64))
	binary.LittleEndian.PutUint32(data[4:], indexVersion4+1)
	repatchHeaderCRC(data)
	if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestReadIndexAbsurdShapeNoOverAllocation forges headers whose n*rank
// would demand terabytes and proves the reader rejects them up front —
// ErrCorrupt, no panic, and crucially no allocation proportional to the
// forged sizes (bounded by a modest Alloc delta measurement).
func TestReadIndexAbsurdShapeNoOverAllocation(t *testing.T) {
	pristine := golden(t, goldenIndexV4(TierF64))
	forge := func(n, rank uint64) []byte {
		data := append([]byte(nil), pristine...)
		binary.LittleEndian.PutUint64(data[16:], n)
		binary.LittleEndian.PutUint64(data[24:], rank)
		repatchHeaderCRC(data)
		return data
	}
	cases := map[string][]byte{
		"n*rank over cap":    forge(1<<20, 1<<20),
		"rank beyond n":      forge(4, 5),
		"zero n":             forge(0, 3),
		"zero rank":          forge(5, 0),
		"max n and rank":     forge(^uint64(0), ^uint64(0)), // also overflows the product
		"huge rank, small n": forge(5, 1<<60),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for name, data := range cases {
		if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("rejecting forged headers allocated %d bytes", grew)
	}
}

// TestReadIndexForgedCountShortStream claims a large-but-capped payload
// over a stream that ends after its header page: the reader must size
// nothing by the header and refuse the stream against the file size the
// header records, instead of committing the forged allocation.
func TestReadIndexForgedCountShortStream(t *testing.T) {
	data := golden(t, goldenIndexV4(TierF64))[:pageSize] // header only
	// n=2^25, rank=512: n*rank = 2^34 = exactly the cap, so the header
	// passes plausibility, but the stream holds no payload at all.
	binary.LittleEndian.PutUint64(data[16:], 1<<25)
	binary.LittleEndian.PutUint64(data[24:], 512)
	binary.LittleEndian.PutUint64(data[56:], 1<<40)
	repatchHeaderCRC(data)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadIndex(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("short stream with forged count allocated %d bytes", grew)
	}
}

// TestSaveIndexCrashConsistency simulates the torn-write window the
// fsync+rename dance closes: a partially written temp file must never be
// visible at the destination path, and an interrupted save must leave a
// previously published index untouched and loadable.
func TestSaveIndexCrashConsistency(t *testing.T) {
	ix := buildIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.csrx")
	if err := SaveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer killed mid-write: a stray temp file with a
	// truncated payload sits next to the published index.
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(dir, ".csrx-torn")
	if err := os.WriteFile(tornPath, buf.Bytes()[:buf.Len()/3], 0o644); err != nil {
		t.Fatal(err)
	}
	// The published path still loads — the torn temp never replaced it.
	if _, err := LoadIndex(path); err != nil {
		t.Fatalf("published index damaged by torn write: %v", err)
	}
	// And the torn file itself is rejected as corrupt, not half-loaded.
	if _, err := LoadIndex(tornPath); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn temp file: err = %v, want ErrCorrupt", err)
	}
}
