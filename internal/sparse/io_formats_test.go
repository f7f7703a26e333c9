package sparse

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m, _ := randCSR(rng, 40, 33, 0.15)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r1, c1 := m.Dims()
	r2, c2 := back.Dims()
	if r1 != r2 || c1 != c2 || m.NNZ() != back.NNZ() {
		t.Fatal("shape changed")
	}
	if !back.ToDense().Equal(m.ToDense(), 0) {
		t.Fatal("binary round trip changed values")
	}
}

func TestBinaryEmptyMatrix(t *testing.T) {
	m := NewCOO(5, 5).ToCSR()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 0 {
		t.Fatal("empty matrix grew entries")
	}
}

func TestBinaryCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	m, _ := randCSR(rng, 10, 10, 0.3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[0] = 'X'
		if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[4] = 9
		if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[len(data)-12] ^= 0x10
		if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{2, 7, len(good) / 2, len(good) - 1} {
			if _, err := ReadBinary(bytes.NewReader(good[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("implausible nnz", func(t *testing.T) {
		data := append([]byte(nil), good...)
		for i := 0; i < 8; i++ {
			data[24+i] = 0xFF // nnz field (magic 4 + ver 4 + rows 8 + cols 8)
		}
		if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
}
