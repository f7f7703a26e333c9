// Command csrstat prints structural statistics of a graph — the numbers
// needed to sanity-check a dataset before indexing it (and the evidence
// behind DESIGN.md §5's stand-in matching) — and, in index mode,
// inspects persisted CSR+ index files and publishes them, rewritten, into
// snapshot directories.
//
// Usage:
//
//	csrstat -dataset TW
//	csrstat -graph edges.txt -n 100000 -hubs 10
//	csrstat -dataset WT -dscale 200                           # -dscale goes with -dataset, -n with -graph
//	csrstat -index snap.csrx                                  # whole index or one shard's file
//	csrstat -index whole.csrx -convert /data/snaps            # publish as the directory's newest generation
//	csrstat -index whole.csrx -convert /data/small -quantize int8
//	csrstat -index /data/snaps/index-00000003.csrx -convert /data/snaps  # roll back to generation 3
//	csrstat -index whole.csrx -convert /data/snaps -split 4   # publish shard-<s>/ generations for 4 -shardworkers
//	csrstat -wal /var/lib/csrserver/wal                       # inspect an ingestion log
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"csrplus/internal/core"
	"csrplus/internal/flagmode"
	"csrplus/internal/graph"
	"csrplus/internal/ingest"
	"csrplus/internal/shard"
)

// The modes, by what a run inspects: a graph's structure, a snapshot
// file (and its rewrite), an ingestion log.
const (
	modeGraph = iota
	modeIndex
	modeWAL
)

// modes lists every flag each mode reads: a flag set on the command line
// that its mode does not list is refused instead of silently ignored.
var modes = []flagmode.Mode{
	modeGraph: {When: "without -index or -wal", Flags: "dataset dscale graph n hubs"},
	modeIndex: {When: "with -index", Flags: "index convert quantize split"},
	modeWAL:   {When: "with -wal", Flags: "wal"},
}

func main() {
	if err := run(os.Stdout, flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csrstat:", err)
		os.Exit(1)
	}
}

// run registers every flag on fs, parses args, holds them to their mode's
// row of the table and runs that mode.
func run(out io.Writer, fs *flag.FlagSet, args []string) error {
	var src graph.Source
	src.Flags(fs)
	hubs := fs.Int("hubs", 5, "number of top in-degree hubs to list")
	indexPath := fs.String("index", "", "inspect a persisted CSR+ index or shard file instead of a graph")
	convert := fs.String("convert", "", "with -index: a snapshot directory (created if missing); the index is published as its newest generation, which csrserver serves, in the current (v5, mmap-able, one-factor, graph-carrying) layout")
	quantize := fs.String("quantize", "", "with -convert: factor tier of the written index, f32 or int8 (default: keep the source tier)")
	var split *int // nil unless given: -split 0 is refused, not read as "one file"
	fs.Func("split", "with -convert: the cluster's size K; -convert then names a snapshot root, and shard s of an even K-way split is published as the next generation of <root>/shard-<s>/, where csrserver -shardworker s boots and reloads", func(s string) error {
		k, err := strconv.Atoi(s)
		split = &k
		return err
	})
	walDir := fs.String("wal", "", "inspect a streaming-ingestion WAL directory instead of a graph")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode := modeGraph
	switch {
	case *walDir != "":
		mode = modeWAL
	case *indexPath != "":
		mode = modeIndex
	}
	if err := flagmode.Check(fs, modes, mode); err != nil {
		return err
	}
	switch mode {
	case modeWAL:
		return runWal(out, *walDir)
	case modeIndex:
		return runIndex(out, *indexPath, *convert, *quantize, split)
	}
	return runGraph(out, src, *hubs)
}

// runIndex is index mode: print the metadata a persisted index carries,
// and optionally rewrite it (tier conversion) as the newest generation of
// the snapshot directory convert names or, with split (nil when -split
// was not given), as the per-shard snapshot directories a cluster of
// *split workers boots from (shard.PublishSnapshots). Rewriting is load,
// quantize when asked, publish: the new files store the rows the source
// stores. The file's magic picks the reader, so a shard file fails with
// the shard reader's own error, and a v1–v4 file is refused as stale
// (core.ErrFormat).
func runIndex(out io.Writer, path, convert, quantize string, split *int) error {
	if isShardFile(path) {
		f, err := core.LoadShard(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return runShard(out, path, f, convert != "" || quantize != "" || split != nil)
	}
	ix, err := core.LoadIndex(path)
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
	if gi, ok := ix.Graph(); ok {
		fmt.Fprintf(out, "graph:         m=%d weighted=%t bytes=%d crc=%08x (Q's in-link CSC; read by ingest boots)\n", gi.M, gi.Weighted, gi.Bytes, gi.CRC)
	}
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
	tier, err := core.ParseTier(quantize) // "" is dense.F64, for which Quantize returns ix: the source tier
	if err != nil {
		return err
	}
	outIx, err := ix.Quantize(tier)
	if err != nil {
		return err
	}
	if split != nil {
		if err := shard.PublishSnapshots(convert, outIx, *split); err != nil {
			return fmt.Errorf("-split %d: %w", *split, err)
		}
		fmt.Fprintf(out, "published:     %s/shard-{0..%d} (tier %s, %d of %d rows stored)\n", convert, *split-1, outIx.Tier(), outIx.Stored(), outIx.N())
		return nil
	}
	gen, published, err := core.WriteSnapshot(convert, outIx)
	if err != nil {
		return err
	}
	if _, err := core.PruneSnapshots(convert, core.KeepSnapshots); err != nil {
		return err
	}
	fmt.Fprintf(out, "published:     %s (generation %d, tier %s, %d of %d rows stored)\n", published, gen, outIx.Tier(), outIx.Stored(), outIx.N())
	return nil
}

// isShardFile reports whether the file at path starts with a shard file's
// magic, "CSRS"; anything else is read as a whole index ("CSRX"), whose
// reader says what is wrong with it.
func isShardFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	_, err = io.ReadFull(f, magic[:])
	return err == nil && string(magic[:]) == "CSRS"
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

func runGraph(out io.Writer, src graph.Source, hubs int) error {
	g, err := src.Load()
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
