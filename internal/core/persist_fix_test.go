package core

// persist_fix_test.go pins the persist-layer bugfix sweep: the 32-bit
// element-count wrap, the unvalidated iters header word, and non-finite
// sigma entries. All three forge headers on otherwise-valid files, so
// the checksums are recomputed — the point is that validation must
// reject them even when every byte is "honest".

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"csrplus/internal/dense"
)

// TestReadIndexPlatformElemBound simulates a 32-bit build by shrinking
// maxPlatformElems to MaxInt32 and forging a header whose n*rank passes
// the maxIndexElems (2^34) bound but would wrap int(nNodes*rank)
// negative on a 32-bit platform. Before the fix this sailed through the
// shape check and failed arbitrarily deep in the payload read.
func TestReadIndexPlatformElemBound(t *testing.T) {
	defer func(prev uint64) { maxPlatformElems = prev }(maxPlatformElems)
	maxPlatformElems = math.MaxInt32

	data := golden(t, goldenIndexV5(dense.F64))
	le := binary.LittleEndian
	// n = 2^31, rank = 4: product 2^33 ≤ maxIndexElems but > MaxInt32.
	le.PutUint64(data[16:], 1<<31)
	le.PutUint64(data[24:], 4)
	repatchHeaderCRC(data)
	_, err := ReadIndex(bytes.NewReader(data))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want wrapped ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "platform int") {
		t.Fatalf("err = %v, want the platform-int bound (not a downstream read failure)", err)
	}
}

// TestReadShardPlatformElemBound is the shard-format twin: both the
// owned-row slice and the global node count must clear the platform int.
func TestReadShardPlatformElemBound(t *testing.T) {
	defer func(prev uint64) { maxPlatformElems = prev }(maxPlatformElems)
	maxPlatformElems = math.MaxInt32

	le := binary.LittleEndian
	// Shard header words: n at 16, rank at 24, lo and hi at 40 and 48.
	forge := func(n, lo, hi, rank uint64) []byte {
		data := golden(t, goldenShardV5(dense.F64))
		le.PutUint64(data[16:], n)
		le.PutUint64(data[24:], rank)
		le.PutUint64(data[40:], lo)
		le.PutUint64(data[48:], hi)
		repatchHeaderCRC(data)
		return data
	}
	cases := map[string][]byte{
		"owned rows wrap": forge(1<<31, 0, 1<<31, 4),
		"global n wraps":  forge(1<<32, 0, 2, 4),
	}
	for name, data := range cases {
		_, err := ReadShard(bytes.NewReader(data))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want wrapped ErrCorrupt", name, err)
		} else if !strings.Contains(err.Error(), "platform int") {
			t.Errorf("%s: err = %v, want the platform-int bound", name, err)
		}
	}
}

// TestReadIndexForgedIters pins the iters validation: a 2^63 header word
// used to convert silently to a negative int and flow into Iterations().
func TestReadIndexForgedIters(t *testing.T) {
	data := golden(t, goldenIndexV5(dense.F64))
	binary.LittleEndian.PutUint64(data[40:], 1<<63)
	repatchHeaderCRC(data)
	_, err := ReadIndex(bytes.NewReader(data))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want wrapped ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "iteration") {
		t.Fatalf("err = %v, want the iters validation", err)
	}
}

// TestReadIndexNonFiniteSigma pins the sigma validation: NaN and ±Inf
// entries are honest bytes (the CRC passes) but poison every truncation
// bound computed from them, so they must be rejected as corruption. A
// negative singular value is equally impossible and equally rejected.
func TestReadIndexNonFiniteSigma(t *testing.T) {
	for name, bits := range map[string]uint64{
		"NaN":      math.Float64bits(math.NaN()),
		"+Inf":     math.Float64bits(math.Inf(1)),
		"-Inf":     math.Float64bits(math.Inf(-1)),
		"negative": math.Float64bits(-1.0),
	} {
		data := golden(t, goldenIndexV5(dense.F64))
		// sigma is section 0, on the page after the header.
		binary.LittleEndian.PutUint64(data[pageSize:], bits)
		resealSection(data, tableOff, 0)
		_, err := ReadIndex(bytes.NewReader(data))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s sigma: err = %v, want wrapped ErrCorrupt", name, err)
		} else if !strings.Contains(err.Error(), "sigma") {
			t.Errorf("%s sigma: err = %v, want the sigma validation", name, err)
		}
	}
}
