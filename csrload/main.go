// Command csrload is the repository's end-to-end serving benchmark: it
// builds and boots the real csrserver binary in each topology, drives it
// over loopback HTTP from one generator process, checks sampled answers
// against an in-process reference, and prints every metric by name. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"
)

// smokeScale shrinks the WT stand-in to n = 2048 for -smoke.
const smokeScale = 1200

func main() {
	name := flag.String("workload", "", "workload to run: mono-point, mono-multi, wire-point, ingest-mixed")
	seed := flag.Int64("seed", 1, "seeds the request stream, the edge stream and the arrival schedule")
	seconds := flag.Int("seconds", 20, "measured seconds per run, split 60/40 between the open-loop and closed-loop phases")
	trace := flag.Int("trace", 0, "1 times every layer as well, writes trace-<workload>.json and prints the per-layer metrics instead of the end-to-end ones")
	root := flag.String("root", ".", "repository checkout (csrserver is built from it)")
	workdir := flag.String("workdir", "", "where binaries, snapshots, logs and traces are kept and reused (default <root>/.bench_build/work)")
	bin := flag.String("bin", os.Getenv("CSRSERVER_BIN"), "prebuilt csrserver binary (default: build one into the work dir)")
	smoke := flag.Bool("smoke", false, "run all four workloads, traced, on an n=2048 graph with 2 s phases")
	repeat := flag.Int("repeat", 0, "run this many full sets of all four workloads and print them side by side")
	check := flag.Bool("check", false, "with -repeat: exit non-zero if an end-to-end metric differs between sets by more than its bound")
	printJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json as this build defines it and exit")
	spinCPU := flag.Int("spin", -1, "internal: run as the idle spinner of this CPU")
	flag.Parse()
	if *printJSON {
		data, err := benchmarkJSON(*seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "csrload:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}
	if *spinCPU >= 0 {
		if err := spin(*spinCPU); err != nil {
			fmt.Fprintln(os.Stderr, "csrload: idle spinner:", err)
			os.Exit(1)
		}
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	startSpinners()
	err := run(*name, *seed, *seconds, *trace != 0, *root, *workdir, *bin, *smoke, *repeat, *check)
	stopAll() // a failed run may have left servers up
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrload:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, root, workdir, bin string, smoke bool, repeat int, check bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if workdir == "" {
		workdir = filepath.Join(root, ".bench_build", "work")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	e := &env{root: root, workdir: workdir, bin: bin, poll: &http.Client{Timeout: time.Second}}
	fmt.Println(boxLine())
	tm := timingFor(seconds)
	switch {
	case smoke:
		e.dscale = smokeScale
		tm = timing{warm: 500 * time.Millisecond, open: 2 * time.Second, closed: 2 * time.Second, boots: 1}
		for _, w := range workloads {
			if _, _, err := runOne(e, w, seed, tm, true); err != nil {
				return err
			}
		}
		return nil
	case repeat > 0:
		return runSets(e, seed, tm, repeat, check)
	case name == "":
		return fmt.Errorf("-workload is required (or -smoke, or -repeat N)")
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	o, report, err := runOne(e, w, seed, tm, traced)
	if err != nil {
		return err
	}
	res, err := o.result(report)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne runs one workload once and prints its report: the gated and the
// socket metrics, and for a traced run every per-layer one. report is the
// list the caller's result line is made of.
func runOne(e *env, w workload, seed int64, tm timing, traced bool) (o *outcome, report []metricDef, err error) {
	readers := conns
	if w.writeRate > 0 {
		readers--
	}
	fmt.Printf("workload %s seed=%d open=%v@%grps closed=%v@%dclients writes=%g/s |Q|=%d k=%d\n",
		w.name, seed, tm.open, w.rate, tm.closed, readers, w.writeRate, w.q, w.k)
	var tr *tracer
	report, rest := endToEnd, socket
	if traced {
		tr, report, rest = newTracer(), perLayer, endToEnd
	}
	if o, err = runWorkload(e, w, seed, tm, tr, os.Stdout); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		path := filepath.Join(e.workdir, "trace-"+w.name+".json")
		if err := tr.write(path, w.name); err != nil {
			return nil, nil, err
		}
		fmt.Printf("trace: %d spans in %s\n", len(tr.spans), path)
	}
	for _, d := range slices.Concat(rest, report) {
		fmt.Printf("  %-34s %14.6g %s\n", d.Name, o.metrics[d.Name], d.Unit)
	}
	return o, report, nil
}

// runSets runs every workload sets times with the same seed and prints the
// gated and the socket metrics of the sets side by side with their spread.
// With check it fails when two sets disagree on a gated metric by more than
// its bound, or when any run was incorrect.
func runSets(e *env, seed int64, tm timing, sets int, check bool) error {
	shown := slices.Concat(endToEnd, socket)
	values := map[string][]float64{} // "workload metric" -> one value per set
	var bad []string
	for s := 0; s < sets; s++ {
		for _, w := range workloads {
			o, _, err := runOne(e, w, seed, tm, false)
			if err != nil {
				return err
			}
			if !o.correct() {
				bad = append(bad, fmt.Sprintf("set %d: %s was not correct (%d of %d operations failed)", s+1, w.name, o.failed, o.attempted))
			}
			for _, d := range shown {
				key := w.name + " " + d.Name
				values[key] = append(values[key], o.metrics[d.Name])
			}
		}
	}
	fmt.Printf("\n%-14s %-26s", "workload", "metric")
	for s := 0; s < sets; s++ {
		fmt.Printf(" %12s", fmt.Sprintf("set %d", s+1))
	}
	fmt.Printf(" %8s %6s\n", "spread", "bound")
	for _, w := range workloads {
		for _, d := range shown {
			v := values[w.name+" "+d.Name]
			fmt.Printf("%-14s %-26s", w.name, d.Name)
			for _, x := range v {
				fmt.Printf(" %12.4f", x)
			}
			sorted := sortedCopy(v)
			spread := (sorted[len(sorted)-1] - sorted[0]) / sorted[0]
			if d.Bound == 0 { // a socket metric: shown, not held to a bound
				fmt.Printf(" %7.1f%% %6s\n", 100*spread, "-")
				continue
			}
			fmt.Printf(" %7.1f%% %5.0f%%\n", 100*spread, 100*d.Bound)
			if spread > d.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: sets differ by %.1f%%, bound is %.0f%%", w.name, d.Name, 100*spread, 100*d.Bound))
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Println("CHECK:", b)
	}
	if check && len(bad) > 0 {
		return fmt.Errorf("%d checks failed", len(bad))
	}
	return nil
}
