//go:build !faultinject

package core

// The allocation gate holds the production build's load path: a
// faultinject build wraps the header read in an injecting reader, which
// costs an allocation of its own.

import (
	"path/filepath"
	"testing"

	"csrplus/internal/dense"
)

// TestMappedLoadAllocs holds the verified map of a v5 file to a fixed
// handful of allocations, whatever its tier, rows stored or kind: the
// header, the section table, the views and the mapping handle, never
// anything the size of the factor or of the graph section
// (BENCH_snapshot.json: 1328 B a load).
// It counts allocations, not time, so a busy box cannot move it. It skips
// where the file is decoded, not mapped.
func TestMappedLoadAllocs(t *testing.T) {
	type loaded interface {
		Mapped() bool
		Close() error
	}
	for file, limit := range map[string]float64{
		goldenIndexV5(dense.F64): 11,
		goldenCompactV5:          11,
		goldenIndexV5(dense.I8):  11,
		goldenShardV5(dense.F64): 12,
	} {
		path, kind := filepath.Join("testdata", file), goldenFiles()[file]
		load := func() loaded {
			var l loaded
			var err error
			if kind == shardKind {
				l, err = LoadShard(path)
			} else {
				l, err = LoadIndex(path)
			}
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		l := load()
		mapped := l.Mapped()
		l.Close()
		if !mapped {
			t.Skip("mmap unavailable on this platform; the file loads via the decode fallback")
		}
		allocs := testing.AllocsPerRun(20, func() { load().Close() })
		if allocs > limit {
			t.Errorf("%s: a mapped load makes %v allocations, want at most %v", file, allocs, limit)
		}
	}
}
