package core

import (
	"bytes"
	"testing"
)

// FuzzReadSnapshot: arbitrary bytes must never panic the one snapshot
// reader, under either header, and anything it accepts must be queryable.
// Seeded with every golden fixture — both magics, both versions, all
// tiers — so mutations start from each layout the reader understands.
func FuzzReadSnapshot(f *testing.F) {
	for name := range goldenFiles() {
		good := golden(f, name)
		f.Add(good)
		f.Add(good[:8])
	}
	f.Add([]byte("CSRXgarbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if ix, err := ReadIndex(bytes.NewReader(data)); err == nil {
			if ix.N() < 1 || ix.Rank() < 1 {
				t.Fatal("accepted index with empty shape")
			}
			if _, err := ix.Query([]int{0}, nil); err != nil {
				t.Fatalf("accepted index cannot answer queries: %v", err)
			}
		}
		if sh, err := ReadShard(bytes.NewReader(data)); err == nil {
			if sh.Rows() < 1 || sh.Hi() > sh.N() || sh.Rank() < 1 {
				t.Fatal("accepted shard with empty or out-of-range shape")
			}
			sh.URow(sh.Lo())
			if zmax, umax := sh.ColMaxes(); len(zmax) != sh.Rank() || len(umax) != sh.Rank() {
				t.Fatal("accepted shard whose factors do not match its rank")
			}
		}
	})
}
