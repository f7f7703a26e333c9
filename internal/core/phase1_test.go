package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"csrplus/internal/graph"
	"csrplus/internal/par"
)

// factorCRC is the CRC-32 of Z‖U‖σ as little-endian float64 bit patterns:
// one number that moves if any bit of Phase I's output does.
func factorCRC(ix *Index) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, s := range [][]float64{ix.z.Data, ix.u.Data, ix.sigma} {
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum32()
}

// phase1Pins are CRC(Z‖U‖σ) of Precompute at Rank 8 on seeded R-MAT
// graphs, recorded by running this test at commit f58b8c2 — the last
// commit whose QRThin was the row-major At/Set loop now frozen as
// reftest.QRThin — on linux/amd64. The column-major QR, and anything later
// that touches Phase I, is held to those bits. The small graph keeps every
// kernel on its serial path; on the large one the sparse passes, the QR's
// column fan-out and the chunked Gram reduction all run parallel.
var phase1Pins = []struct {
	scale int
	edges int64
	crc   uint32
}{
	{scale: 12, edges: 16384, crc: 0x5cf3f9a7},
	{scale: 15, edges: 131072, crc: 0x7137b402},
}

// TestPrecomputePinnedBits holds Phase I end to end to the bits the
// pre-rewrite code produced, at several worker counts: the factors are a
// function of (graph, options) alone. The constants are amd64's (where Go
// never fuses multiply-add); elsewhere the worker-count half still runs.
func TestPrecomputePinnedBits(t *testing.T) {
	for _, pin := range phase1Pins {
		g, err := graph.RMAT(pin.scale, pin.edges, graph.DefaultRMAT, 20240914)
		if err != nil {
			t.Fatal(err)
		}
		var first uint32
		for i, w := range []int{1, 2, 7} {
			prev := par.SetMaxWorkers(w)
			ix, err := Precompute(g, Options{Rank: 8})
			par.SetMaxWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			got := factorCRC(ix)
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("n=%d workers=%d: CRC %#08x, workers=1 gave %#08x", g.N(), w, got, first)
			}
		}
		if runtime.GOARCH != "amd64" {
			t.Logf("n=%d: CRC %#08x not compared: constant recorded on amd64, %s may fuse multiply-adds", g.N(), first, runtime.GOARCH)
		} else if first != pin.crc {
			t.Errorf("n=%d: CRC(Z‖U‖σ) = %#08x, want %#08x (recorded before the column-major QR)", g.N(), first, pin.crc)
		}
	}
}
