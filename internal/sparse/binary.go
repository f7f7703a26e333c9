package sparse

// binary.go gives CSR matrices a compact checksummed binary form, so big
// generated stand-in graphs are materialised once and reloaded in O(read)
// instead of re-parsed (or re-generated) per run.
//
// Format (little endian):
//
//	magic   [4]byte "CSRM"
//	version uint32  currently 1
//	rows    uint64
//	cols    uint64
//	nnz     uint64
//	rowptr  [rows+1]int64
//	colidx  [nnz]int32
//	val     [nnz]float64
//	crc     uint32  IEEE CRC-32 of everything after the magic

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

var csrMagic = [4]byte{'C', 'S', 'R', 'M'}

// csrBinaryVersion is the current on-disk version.
const csrBinaryVersion = 1

// maxBinaryNNZ caps the entry count accepted at load time (64 GiB of
// values) so corrupt headers cannot trigger huge allocations.
const maxBinaryNNZ = 1 << 33

// ErrCorrupt is returned (wrapped) when binary CSR input, or the arrays
// handed to NewCSR, fail validation.
var ErrCorrupt = errors.New("sparse: corrupt binary matrix")

// WriteBinary serialises m.
func WriteBinary(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(csrMagic[:]); err != nil {
		return fmt.Errorf("sparse: writing binary magic: %w", err)
	}
	crc := crc32.NewIEEE()
	body := io.MultiWriter(bw, crc)
	le := binary.LittleEndian
	rows, cols := m.Dims()
	if err := binary.Write(body, le, uint32(csrBinaryVersion)); err != nil {
		return fmt.Errorf("sparse: writing binary header: %w", err)
	}
	for _, v := range []uint64{uint64(rows), uint64(cols), uint64(m.NNZ())} {
		if err := binary.Write(body, le, v); err != nil {
			return fmt.Errorf("sparse: writing binary header: %w", err)
		}
	}
	if err := binary.Write(body, le, m.RowPtr); err != nil {
		return fmt.Errorf("sparse: writing row pointers: %w", err)
	}
	if err := binary.Write(body, le, m.ColIdx); err != nil {
		return fmt.Errorf("sparse: writing column indices: %w", err)
	}
	if err := binary.Write(body, le, m.Val); err != nil {
		return fmt.Errorf("sparse: writing values: %w", err)
	}
	if err := binary.Write(bw, le, crc.Sum32()); err != nil {
		return fmt.Errorf("sparse: writing checksum: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("sparse: flushing binary matrix: %w", err)
	}
	return nil
}

// chunkElems bounds how many elements each incremental read commits to
// memory before the stream has delivered the bytes backing them.
const chunkElems = 1 << 16

// readChunkedInt64 reads count little-endian int64s, growing the slice
// chunk by chunk so truncated streams fail before large allocations.
func readChunkedInt64(r io.Reader, count uint64) ([]int64, error) {
	out := make([]int64, 0, min(count, chunkElems))
	buf := make([]byte, 8*chunkElems)
	le := binary.LittleEndian
	for read := uint64(0); read < count; {
		n := min(count-read, chunkElems)
		if _, err := io.ReadFull(r, buf[:n*8]); err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			out = append(out, int64(le.Uint64(buf[i*8:])))
		}
		read += n
	}
	return out, nil
}

// readChunkedInt32 is readChunkedInt64 for int32 payloads.
func readChunkedInt32(r io.Reader, count uint64) ([]int32, error) {
	out := make([]int32, 0, min(count, chunkElems))
	buf := make([]byte, 4*chunkElems)
	le := binary.LittleEndian
	for read := uint64(0); read < count; {
		n := min(count-read, chunkElems)
		if _, err := io.ReadFull(r, buf[:n*4]); err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			out = append(out, int32(le.Uint32(buf[i*4:])))
		}
		read += n
	}
	return out, nil
}

// readChunkedFloat64 is readChunkedInt64 for float64 payloads.
func readChunkedFloat64(r io.Reader, count uint64) ([]float64, error) {
	out := make([]float64, 0, min(count, chunkElems))
	buf := make([]byte, 8*chunkElems)
	le := binary.LittleEndian
	for read := uint64(0); read < count; {
		n := min(count-read, chunkElems)
		if _, err := io.ReadFull(r, buf[:n*8]); err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			out = append(out, math.Float64frombits(le.Uint64(buf[i*8:])))
		}
		read += n
	}
	return out, nil
}

// ReadBinary deserialises a matrix written by WriteBinary, validating the
// magic, version, structural invariants and checksum.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("sparse: reading binary magic: %w", err)
	}
	if magic != csrMagic {
		return nil, fmt.Errorf("sparse: bad magic %q: %w", magic, ErrCorrupt)
	}
	crc := crc32.NewIEEE()
	body := io.TeeReader(br, crc)
	le := binary.LittleEndian
	var version uint32
	if err := binary.Read(body, le, &version); err != nil {
		return nil, fmt.Errorf("sparse: reading binary version: %w", err)
	}
	if version != csrBinaryVersion {
		return nil, fmt.Errorf("sparse: binary version %d, want %d: %w", version, csrBinaryVersion, ErrCorrupt)
	}
	var rows, cols, nnz uint64
	for _, dst := range []*uint64{&rows, &cols, &nnz} {
		if err := binary.Read(body, le, dst); err != nil {
			return nil, fmt.Errorf("sparse: reading binary header: %w", err)
		}
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 || nnz > maxBinaryNNZ {
		return nil, fmt.Errorf("sparse: implausible shape %dx%d nnz=%d: %w", rows, cols, nnz, ErrCorrupt)
	}
	// Arrays are read in bounded chunks that grow only as bytes actually
	// arrive: a forged header claiming billions of entries on a tiny
	// stream must fail fast, not commit the full allocation up front.
	rowPtr, err := readChunkedInt64(body, rows+1)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading row pointers: %w", err)
	}
	colIdx, err := readChunkedInt32(body, nnz)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading column indices: %w", err)
	}
	val, err := readChunkedFloat64(body, nnz)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading values: %w", err)
	}
	sum := crc.Sum32()
	var want uint32
	if err := binary.Read(br, le, &want); err != nil {
		return nil, fmt.Errorf("sparse: reading checksum: %w", err)
	}
	if sum != want {
		return nil, fmt.Errorf("sparse: checksum %08x, want %08x: %w", sum, want, ErrCorrupt)
	}
	return NewCSR(int(rows), int(cols), rowPtr, colIdx, val)
}
