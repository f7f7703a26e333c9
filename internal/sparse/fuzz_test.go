package sparse

import (
	"strings"
	"testing"
)

// Fuzz targets for every reader in the package: whatever the input, the
// parsers must return an error or a structurally valid matrix — never
// panic, never hand back out-of-range indices. `go test` runs the seed
// corpus; `go test -fuzz=FuzzReadEdgeList ./internal/sparse` explores.

func checkValid(t *testing.T, m *CSR) {
	t.Helper()
	if m == nil {
		return
	}
	rows, cols := m.Dims()
	if int64(len(m.ColIdx)) != m.NNZ() || len(m.RowPtr) != rows+1 {
		t.Fatal("inconsistent CSR arrays")
	}
	if rows > 0 && (m.RowPtr[0] != 0 || m.RowPtr[rows] != m.NNZ()) {
		t.Fatal("row pointers do not bracket nnz")
	}
	for _, j := range m.ColIdx {
		if j < 0 || int(j) >= cols {
			t.Fatalf("column index %d out of range [0, %d)", j, cols)
		}
	}
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n\n5 5\n")
	f.Add("a b\n")
	f.Add("-1 3\n")
	f.Add("0 1 extra fields ok\n")
	f.Fuzz(func(t *testing.T, input string) {
		checkEdgeListReaders(t, input) // verdict, entries and error text of the pre-PR-20 parser
		coo, err := ReadEdgeList(strings.NewReader(input), 10)
		if err != nil {
			return
		}
		checkValid(t, coo.ToCSR())
	})
}
