package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/wire"
)

// TestSimilarityOneAnswerEveryMode holds /similarity to one answer: the
// same request returns byte-identical bodies from a plain server and a
// -shardaddrs router over three wire workers, and every cell is, bit for
// bit, the entry of the library's full-rank n x |Q| block
// (core.Index.QueryRankInto). The last request
// is one a column engine could not admit on this graph: 5600 query ids x
// 6000 rows x 8 B is past the 256 MiB a column request may size, while the
// answer is 16800 pairs.
func TestSimilarityOneAnswerEveryMode(t *testing.T) {
	const n, rank = 6000, 4
	rng := rand.New(rand.NewSource(19))
	var edges strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&edges, "%d %d\n", i, (i+1)%n)
		for e := 0; e < 4; e++ {
			fmt.Fprintf(&edges, "%d %d\n", rng.Intn(n), rng.Intn(n))
		}
	}
	graphPath := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(graphPath, []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := csrplus.LoadGraph(graphPath, n)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: rank})
	if err != nil {
		t.Fatal(err)
	}
	ix := coreIndex(eng)

	ids := func(nodes ...int) string {
		parts := make([]string, len(nodes))
		for i, v := range nodes {
			parts[i] = strconv.Itoa(v)
		}
		return strings.Join(parts, ",")
	}
	wide := make([]int, 0, 5600) // 8 distinct ids, 700 times over
	for len(wide) < cap(wide) {
		wide = append(wide, 17, 1999, 2000, 2500, 3999, 4000, 4100, n-1)
	}
	requests := []struct{ name, nodes, targets string }{
		{"single source, a target on every shard", "17", ids(3, 2500, n-1)},
		{"multi-source, targets on the shard boundaries", ids(17, 2500, 4100), ids(0, 1999, 2000, 3999, 4000, n-1)},
		{"duplicate nodes and targets, a node as its own target", "5,5,9", "7,7,5"},
		{"more query ids than a column block admits", ids(wide...), ids(3, 2500, n-1)},
	}

	graphArgs := []string{"-graph", graphPath, "-n", strconv.Itoa(n), "-r", strconv.Itoa(rank)}
	addrs := wireWorkers(t, publishShards(t, ix, 3), 3, nil)

	t.Run("full rank", func(t *testing.T) {
		modes := []struct {
			name string
			s    *server
		}{
			{"K=1", bootFlags(t, graphArgs...)},
			{"-shardaddrs", bootFlags(t, "-shardaddrs", addrs)},
		}
		for _, req := range requests {
			var body []byte
			for _, m := range modes {
				rec := httptest.NewRecorder()
				m.s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/similarity?nodes="+req.nodes+"&targets="+req.targets, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s, %s: HTTP %d %s", req.name, m.name, rec.Code, rec.Body)
				}
				if body == nil {
					body = rec.Body.Bytes()
				} else if !bytes.Equal(rec.Body.Bytes(), body) {
					t.Fatalf("%s: %s answers\n%.300s\nbut %s answered\n%.300s", req.name, m.name, rec.Body, modes[0].name, body)
				}
			}

			var got struct {
				Pairs    []serve.Pair     `json:"pairs"`
				Degraded *serve.QueryInfo `json:"degraded"`
			}
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.Degraded != nil {
				t.Fatalf("%s: degraded tag %+v on a full-rank answer with every shard up", req.name, got.Degraded)
			}
			nodes, _ := parseIDs(req.nodes)
			targets, _ := parseIDs(req.targets)
			col := map[int]int{} // node -> its column of the oracle block
			var distinct []int
			for _, q := range nodes {
				if _, ok := col[q]; !ok {
					col[q] = len(distinct)
					distinct = append(distinct, q)
				}
			}
			want, err := ix.QueryRankInto(context.Background(), distinct, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Pairs) != len(nodes)*len(targets) {
				t.Fatalf("%s: %d pairs, want %d", req.name, len(got.Pairs), len(nodes)*len(targets))
			}
			for i, p := range got.Pairs {
				q, tgt := nodes[i/len(targets)], targets[i%len(targets)]
				if w := want.At(tgt, col[q]); p.Query != q || p.Target != tgt || math.Float64bits(p.Score) != math.Float64bits(w) {
					t.Fatalf("%s: pair %d = %+v, want (%d, %d) scoring %v (%#x)", req.name, i, p, q, tgt, w, math.Float64bits(w))
				}
			}
		}
	})
}

// poisonF rewrites entry (row, 0) of the factor F in the snapshot file at
// path — a whole index (CSRX), or with shard set one shard's file (CSRS),
// which leads with no sigma section — as NaN and re-seals the section and
// header checksums (layout: DESIGN.md §13), so the file loads — the way an
// index published from a bad build would.
func poisonF(t *testing.T, path string, shard bool, row, rank int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const page, table, desc = 4096, 128, 24
	zSection := 4 // sigma, ids, fscale, fqerr, f
	if shard {
		zSection = 3
	}
	le := binary.LittleEndian
	d := data[table+zSection*desc:]
	off, length := le.Uint64(d), le.Uint64(d[8:])
	le.PutUint64(data[off+uint64(row*rank)*8:], math.Float64bits(math.NaN()))
	le.PutUint32(d[16:], crc32.ChecksumIEEE(data[off:off+(length+page-1)&^(page-1)]))
	le.PutUint32(data[page-4:], crc32.ChecksumIEEE(data[:page-4]))
	tmp := path + ".tmp" // a new inode: a generation may have the old file mapped
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// The smoke test of a generation reads nine cells of S and three top-3
// lists, and a selector drops NaN rows without a word, so a non-finite
// factor entry in a row no probe owns is only ever seen by the scan of
// every row: every way factors enter service must run it, at boot and on
// reload — the whole-index path of a local server, and each worker of a
// cluster over its own shard.
func TestNonFiniteFactorRowRefused(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		// A pre-built file, served as one: the only generation of a
		// snapshot directory.
		dir := t.TempDir()
		_, index, err := testEngine(t).SaveSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := bootArgs(t, "-snapshots", dir)
		poisonF(t, index, false, 1, 3) // the probes are nodes 0, 3 and 5
		st, err := s.reload(context.Background())
		if !errors.Is(err, reload.ErrValidation) || !strings.Contains(err.Error(), "non-finite score") {
			t.Fatalf("reload of the poisoned index: err = %v, want ErrValidation naming a non-finite score", err)
		}
		if st.Generation != 1 {
			t.Fatalf("generation %d serving after the refused reload, want 1", st.Generation)
		}
		if res, err := s.sv.Score(context.Background(), []int{0}, []int{1}); err != nil || math.IsNaN(res.Pairs[0].Score) {
			t.Fatalf("boot generation after the refused reload: %+v, %v", res, err)
		}

		cfg, err := parse("-graph", graphFile(t), "-n", "6", "-r", "3", "-snapshots", dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := boot(context.Background(), cfg); !errors.Is(err, reload.ErrValidation) {
			t.Fatalf("boot from the poisoned index: err = %v, want ErrValidation", err)
		}
	})
	// Three workers over two nodes each; the poisoned row is node 3, the
	// second row of worker 1's shard file and one of its probes, whose row
	// is the query side of the scan too.
	t.Run("shards=3", func(t *testing.T) {
		snaps := publishShards(t, coreIndex(testEngine(t)), 3)
		s := bootFlags(t, "-shardaddrs", wireWorkers(t, snaps, 3, nil), "-admintoken", "sesame")
		path, _, err := core.CurrentSnapshot(core.ShardDir(snaps, 1))
		if err != nil {
			t.Fatal(err)
		}
		poisonF(t, path, true, 1, 3)
		st, err := s.reload(context.Background())
		if err == nil || !strings.Contains(err.Error(), "non-finite query row") {
			t.Fatalf("roll onto the poisoned shard: err = %v, want worker 1's refusal naming its non-finite probe row", err)
		}
		if gens := st.ShardStatus(); st.Generation != 1 || gens[0].Generation != 2 || gens[1].Generation != 1 || gens[2].Generation != 1 {
			t.Fatalf("after the refused roll: serve generation %d over slots %+v, want 1 over slot generations 2, 1, 1", st.Generation, gens)
		}
		if res, err := s.sv.Score(context.Background(), []int{0}, []int{3}); err != nil || math.IsNaN(res.Pairs[0].Score) {
			t.Fatalf("worker 1 after its refused reload: %+v, %v", res, err)
		}
		if _, err := wire.BootWorker(wire.WorkerConfig{Shard: 1, SnapshotDir: core.ShardDir(snaps, 1)}); !errors.Is(err, reload.ErrValidation) {
			t.Fatalf("worker boot from the poisoned shard: err = %v, want ErrValidation", err)
		}
	})
}
