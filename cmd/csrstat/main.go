// Command csrstat prints structural statistics of a graph — the numbers
// needed to sanity-check a dataset before indexing it (and the evidence
// behind DESIGN.md §5's stand-in matching) — and, in index mode,
// inspects and converts persisted CSR+ index files.
//
// Usage:
//
//	csrstat -dataset TW
//	csrstat -graph edges.txt -n 100000 -hubs 10
//	csrstat -index snap.csrx                                  # whole index or one shard's file
//	csrstat -index old-v3.csrx -convert new.csrx              # exact two-factor v3 -> one-factor v4
//	csrstat -index exact.csrx -convert small.csrx -quantize int8
//	csrstat -index whole.csrx -convert /data/snaps -split 4   # publish shard-<s>/ generations for 4 -shardworkers
//	csrstat -wal /var/lib/csrserver/wal                       # inspect an ingestion log
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"csrplus/internal/core"
	"csrplus/internal/graph"
	"csrplus/internal/ingest"
	"csrplus/internal/shard"
)

func main() {
	dataset := flag.String("dataset", "", "paper dataset stand-in: FB, P2P, YT, WT, TW, WB")
	scale := flag.Int64("dscale", 0, "dataset downscale factor (0 = default)")
	graphPath := flag.String("graph", "", "edge-list file")
	n := flag.Int("n", 0, "node count for -graph")
	hubs := flag.Int("hubs", 5, "number of top in-degree hubs to list")
	indexPath := flag.String("index", "", "inspect a persisted CSR+ index or shard file instead of a graph")
	convert := flag.String("convert", "", "with -index: rewrite the index to this path in the current (v4, mmap-able, one-factor) layout, without its all-zero rows; an exact v3 index is converted")
	quantize := flag.String("quantize", "", "with -convert: factor tier of the written index, f32 or int8 (default: keep the source tier)")
	var split *int // nil unless given: -split 0 is refused, not read as "one file"
	flag.Func("split", "with -convert: the cluster's size K; -convert then names a snapshot root, and shard s of an even K-way split is published as the next generation of <root>/shard-<s>/, where csrserver -shardworker s boots and reloads", func(s string) error {
		k, err := strconv.Atoi(s)
		split = &k
		return err
	})
	walDir := flag.String("wal", "", "inspect a streaming-ingestion WAL directory instead of a graph")
	flag.Parse()

	var err error
	switch {
	case *walDir != "":
		if *indexPath != "" {
			err = fmt.Errorf("-wal and -index are different modes; pick one")
		} else {
			err = runWal(os.Stdout, *walDir)
		}
	case *indexPath != "":
		err = runIndex(os.Stdout, *indexPath, *convert, *quantize, split)
	case *convert != "" || *quantize != "" || split != nil:
		err = fmt.Errorf("-convert, -quantize and -split require -index")
	default:
		err = run(os.Stdout, *dataset, *scale, *graphPath, *n, *hubs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrstat:", err)
		os.Exit(1)
	}
}

// runIndex is index mode: print the metadata a persisted index carries,
// and optionally rewrite it (v3 -> v4 migration, tier conversion) as one
// file or, with split (nil when -split was not given), as the per-shard
// snapshot directories a cluster of *split workers boots from
// (shard.PublishSnapshots). An exact v3 index — two factors, which no
// server loads — is read by core.ConvertIndex, which derives the one
// factor; converting is that load + save, less the rows that are all zero
// (core.Index.Compact: the answers do not move).
func runIndex(out io.Writer, path, convert, quantize string, split *int) error {
	ix, err := core.LoadIndex(path)
	if errors.Is(err, core.ErrFormat) {
		ix, err = core.ConvertIndex(path)
	}
	if errors.Is(err, core.ErrCorrupt) {
		// Not a whole index; a shard file is the same factors under the
		// other header, and loads only as one.
		f, serr := core.LoadShard(path)
		if serr == nil {
			defer f.Close()
			return runShard(out, path, f, convert != "" || quantize != "" || split != nil)
		}
		err = fmt.Errorf("%w; as a shard file: %v", err, serr)
	}
	if err != nil {
		return err
	}
	defer ix.Close()

	if err := printFile(out, path, &ix.IndexShard); err != nil {
		return err
	}
	fmt.Fprintf(out, "rank:          %d\n", ix.Rank())
	fmt.Fprintf(out, "damping:       %g\n", ix.Damping())
	fmt.Fprintf(out, "iterations:    %d\n", ix.Iterations())
	fmt.Fprintf(out, "build:         %016x\n", ix.Build())
	fmt.Fprintf(out, "sigma:         %s\n", floats(ix.SingularValues()))
	fmt.Fprintf(out, "lambda:        %s (eigenvalues of ΣPΣ, ‖F_j‖²)\n", floats(ix.Eigenvalues()))
	if b := ix.ClampBound(); b > 0 {
		fmt.Fprintf(out, "clamp bound:   %g (entrywise: negative eigenvalues served as 0)\n", b)
	}
	fmt.Fprintf(out, "tier:          %s\n", ix.Tier())
	fmt.Fprintf(out, "mapped:        %t\n", ix.Mapped())
	printSize(out, &ix.IndexShard, ix.Bytes())
	if b := ix.QuantizationBound(); b > 0 {
		fmt.Fprintf(out, "quant bound:   %g (entrywise, vs the exact index)\n", b)
	}

	if convert == "" {
		if quantize != "" {
			return fmt.Errorf("-quantize requires -convert (quantization happens at write time)")
		}
		if split != nil {
			return fmt.Errorf("-split requires -convert (the snapshot root the shard directories go under)")
		}
		return nil
	}
	outIx := ix.Compact()
	if quantize != "" {
		tier, err := core.ParseTier(quantize)
		if err != nil {
			return err
		}
		if outIx, err = outIx.Quantize(tier); err != nil {
			return err
		}
	}
	if split != nil {
		if err := shard.PublishSnapshots(convert, outIx, *split); err != nil {
			return fmt.Errorf("-split %d: %w", *split, err)
		}
		fmt.Fprintf(out, "published:     %s/shard-{0..%d} (tier %s, %d of %d rows stored)\n", convert, *split-1, outIx.Tier(), outIx.Stored(), outIx.N())
		return nil
	}
	if err := core.SaveIndex(outIx, convert); err != nil {
		return err
	}
	fmt.Fprintf(out, "written:       %s (tier %s, %d of %d rows stored)\n", convert, outIx.Tier(), outIx.Stored(), outIx.N())
	return nil
}

// printFile prints what every snapshot file starts its report with: the
// file, the format version it was written in (the word after the magic, in
// every version) and the node count.
func printFile(out io.Writer, path string, sh *core.IndexShard) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "file:          %s (%d bytes)\n", path, fi.Size())
	fmt.Fprintf(out, "format:        v%d\n", binary.LittleEndian.Uint32(head[4:]))
	fmt.Fprintf(out, "nodes:         %d\n", sh.N())
	return nil
}

// floats renders a rank-length vector on one line.
func floats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return strings.Join(s, " ")
}

// printSize prints how much of its node range the file stores and what
// that costs: bytes is the resident size of what was loaded.
func printSize(out io.Writer, sh *core.IndexShard, bytes int64) {
	fmt.Fprintf(out, "rows stored:   %d of %d", sh.Stored(), sh.Rows())
	if sh.Stored() < sh.Rows() {
		fmt.Fprint(out, " (the rest are all-zero rows, left out)")
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "factor bytes:  %d (%.1f per node)\n", bytes, float64(bytes)/float64(sh.Rows()))
}

// runShard reports a shard file — what an operator is told to
// investigate when a shard directory recovers to an older generation.
func runShard(out io.Writer, path string, f *core.ShardFile, rewrite bool) error {
	sh := f.IndexShard
	if err := printFile(out, path, sh); err != nil {
		return err
	}
	fmt.Fprintf(out, "shard rows:    [%d, %d)\n", sh.Lo(), sh.Hi())
	fmt.Fprintf(out, "build:         %016x\n", sh.Build())
	fmt.Fprintf(out, "rank:          %d\n", sh.Rank())
	fmt.Fprintf(out, "damping:       %g\n", sh.Damping())
	fmt.Fprintf(out, "tier:          %s\n", sh.Tier())
	fmt.Fprintf(out, "mapped:        %t\n", f.Mapped())
	printSize(out, sh, sh.Bytes())
	if rewrite {
		return fmt.Errorf("%s is a shard file: -convert, -quantize and -split need a whole index", path)
	}
	return nil
}

// runWal is WAL mode: a read-only walk of an ingestion log's segments —
// sequence range, per-segment record counts, CRC verification, the torn
// tail a crash mid-append left (recoverable: replay truncates it), and
// whether the acknowledged history itself is damaged (fatal: replay
// refuses to serve over it). Inspect never mutates the log, so it is
// safe against a live server's WAL directory.
func runWal(out io.Writer, dir string) error {
	info, err := ingest.Inspect(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wal dir:       %s\n", info.Dir)
	fmt.Fprintf(out, "segments:      %d\n", len(info.Segments))
	fmt.Fprintf(out, "records:       %d\n", info.Records)
	if info.Records > 0 {
		fmt.Fprintf(out, "seq range:     %d - %d\n", info.FirstSeq, info.LastSeq)
	}
	for _, s := range info.Segments {
		fmt.Fprintf(out, "  %s: %d records (seq %d-%d), %d bytes", s.Name, s.Records, s.FirstSeq, s.LastSeq, s.Bytes)
		if s.TornTail > 0 {
			fmt.Fprintf(out, ", %d torn tail bytes", s.TornTail)
		}
		if s.Corrupt != "" {
			fmt.Fprintf(out, " [%s]", s.Corrupt)
		}
		fmt.Fprintln(out)
	}
	switch {
	case info.Corrupt != "":
		fmt.Fprintf(out, "status:        CORRUPT — %s\n", info.Corrupt)
		return fmt.Errorf("acknowledged history is damaged; restore the log from a replica or remove it and re-bootstrap from the latest snapshot")
	case info.TornTail > 0:
		fmt.Fprintf(out, "status:        torn tail (%d bytes) — the next replay truncates it\n", info.TornTail)
	default:
		fmt.Fprintf(out, "status:        clean\n")
	}
	return nil
}

func run(out io.Writer, dataset string, scale int64, graphPath string, n, hubs int) error {
	g, err := load(dataset, scale, graphPath, n)
	if err != nil {
		return err
	}
	st := g.ComputeStats()
	fmt.Fprintf(out, "nodes:         %d\n", st.N)
	fmt.Fprintf(out, "edges:         %d\n", st.M)
	fmt.Fprintf(out, "avg degree:    %.2f\n", st.AvgDegree)
	fmt.Fprintf(out, "max in/out:    %d / %d\n", st.MaxInDeg, st.MaxOutDeg)
	fmt.Fprintf(out, "zero in/out:   %d / %d\n", st.ZeroInDeg, st.ZeroOutDeg)

	_, wcc := g.WeakComponents()
	_, scc := g.StrongComponents()
	fmt.Fprintf(out, "components:    %d weak, %d strong\n", wcc, scc)

	hist := g.InDegreeHistogram()
	fmt.Fprintf(out, "heavy-tailed:  %t (max in-degree %.0fx mean)\n",
		hist.PowerLawish(10), float64(hist.Max)/nonzero(hist.Mean))
	fmt.Fprintf(out, "in-degree histogram (power-of-two bins):\n")
	for k, c := range hist.Bins {
		if c == 0 {
			continue
		}
		fmt.Fprintf(out, "  [%6d, %6d): %d\n", 1<<k, 1<<(k+1), c)
	}
	if hubs > 0 {
		in := g.InDegrees()
		fmt.Fprintf(out, "top in-degree hubs:\n")
		for _, h := range g.TopHubs(hubs) {
			fmt.Fprintf(out, "  node %-10d in-degree %d\n", h, in[h])
		}
	}
	return nil
}

func nonzero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

func load(dataset string, scale int64, graphPath string, n int) (*graph.Graph, error) {
	switch {
	case dataset != "" && graphPath != "":
		return nil, fmt.Errorf("use either -dataset or -graph, not both")
	case dataset != "":
		d, err := graph.DatasetByKey(dataset)
		if err != nil {
			return nil, err
		}
		if scale <= 0 {
			scale = d.Scale
		}
		return d.GenerateScaled(scale)
	case graphPath != "":
		if n <= 0 {
			return nil, fmt.Errorf("-graph requires -n")
		}
		return graph.Load(graphPath, n)
	default:
		return nil, fmt.Errorf("one of -dataset or -graph is required")
	}
}
