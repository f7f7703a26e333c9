package core

import (
	"bytes"
	"testing"
)

// FuzzReadSnapshot: arbitrary bytes must never panic the one snapshot
// reader, under either header, and anything it accepts must be queryable.
// Seeded with every golden fixture — both magics, all tiers, and the v3
// files it must refuse — each whole, cut to its first 8 bytes and cut to
// its header page, so mutations start from each layout the reader knows.
func FuzzReadSnapshot(f *testing.F) {
	for name := range goldenFiles() {
		good := golden(f, name)
		f.Add(good)
		f.Add(good[:8])
		f.Add(good[:pageSize])
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
			if fmax := sh.ColMaxes(); len(fmax) != sh.Rank() {
				t.Fatal("accepted shard whose factor does not match its rank")
			}
		}
	})
}
