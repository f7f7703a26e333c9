// Offline/online split — deploying CSR+ the way its two-phase design
// intends: phase I (SVD + subspace solve) runs once, offline; the
// resulting index is published into a snapshot directory; query serving
// loads the published file in milliseconds, needs no graph — the file
// carries its n and m — and never touches the expensive path again.
//
//	go run ./examples/offlineindex
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"csrplus"
)

func main() {
	dir, err := os.MkdirTemp("", "csrplus-offline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Offline: build the graph, precompute, persist. ---
	g, err := csrplus.GenerateDataset("WT", 200) // 16k-node talk graph
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: 8})
	if err != nil {
		log.Fatal(err)
	}
	precompute := time.Since(start)
	gen, indexPath, err := eng.SaveSnapshot(dir)
	if err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(indexPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: graph n=%d m=%d, precompute %v, published %s (generation %d, %d KiB)\n",
		g.N(), g.M(), precompute.Round(time.Millisecond), filepath.Base(indexPath), gen, info.Size()/1024)

	// --- Online: load and serve, from the published file alone. ---
	start = time.Now()
	server, err := csrplus.LoadEngine(nil, indexPath)
	if err != nil {
		log.Fatal(err)
	}
	load := time.Since(start)

	queries := []int{10, 200, 3000}
	start = time.Now()
	cols, err := server.Query(queries)
	if err != nil {
		log.Fatal(err)
	}
	query := time.Since(start)
	st := server.Stats()
	if st.N != g.N() || st.M != g.M() {
		log.Fatalf("loaded index reports n=%d m=%d, the graph has n=%d m=%d", st.N, st.M, g.N(), g.M())
	}
	fmt.Printf("online:  graph n=%d m=%d, index load %v, |Q|=%d multi-source query %v\n",
		st.N, st.M, load.Round(time.Microsecond), len(queries), query.Round(time.Microsecond))

	// Answers from the loaded index must match the freshly built engine.
	fresh, err := eng.Query(queries)
	if err != nil {
		log.Fatal(err)
	}
	maxDiff := 0.0
	for j := range queries {
		for i := range cols[j] {
			if d := cols[j][i] - fresh[j][i]; d > maxDiff || -d > maxDiff {
				if d < 0 {
					d = -d
				}
				maxDiff = d
			}
		}
	}
	fmt.Printf("verify:  max |loaded - fresh| = %g\n", maxDiff)
	top, err := server.TopK(queries[0], 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sample:  top-5 similar to node %d: ", queries[0])
	for _, m := range top {
		fmt.Printf("%d(%.3f) ", m.Node, m.Score)
	}
	fmt.Println()
}
