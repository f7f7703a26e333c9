package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/shard"
)

// Fixture shared by every workload (see README.md): the WT stand-in at its
// default scale, rank 16, damping 0.6; every other csrserver flag at its
// default.
const (
	dataset    = "WT"
	rank       = 16
	damping    = 0.6
	wireShards = 2
	adminToken = "csrload"
	// conns is the total number of connections the generator opens, and
	// so the closed-loop client count: the box has two cores.
	conns = 2
)

type topoKind int

const (
	topoMono topoKind = iota
	topoWire
	topoIngest
)

// workload is one traffic mix against one topology. Rates are constants:
// they are never calibrated at run time, so a parent commit and a change
// always see identical load.
type workload struct {
	name string
	why  string
	kind topoKind
	// cold boots from an empty snapshot directory, so set-up is the
	// paper's Phase I precompute; otherwise the boot maps a prepared
	// snapshot.
	cold      bool
	q, k      int     // query set size and top-k of every read
	rate      float64 // open-loop reads per second
	writeRate float64 // edge batches per second; 0 without a write stream
}

var workloads = []workload{
	{name: "mono-point", kind: topoMono, cold: true, q: 1, k: 10, rate: 200,
		why: "single-source top-10 on a cold-booted monolith: the canonical request, and set-up is the paper's Phase I precompute"},
	{name: "mono-multi", kind: topoMono, q: 16, k: 100, rate: 20,
		why: "16-source top-100 on a snapshot-booted monolith: the paper's headline query, wide GEMM tiles and SelectSet"},
	{name: "wire-point", kind: topoWire, q: 1, k: 10, rate: 100,
		why: "mono-point's requests through a router and 2 shard workers: wire codec, two round trips and topk.Merge, which mono-* bypass"},
	{name: "ingest-mixed", kind: topoIngest, q: 1, k: 10, rate: 80, writeRate: 100,
		why: "single-source reads beside 100 fsynced 16-edge batches a second, then a restart from snapshot + WAL tail"},
}

// latencyWindow is the length of the intervals the open-loop phase is cut
// into: a second, or as long as it takes for 50 requests to fall due, so
// that a window's p90 has five samples beyond it.
func (w workload) latencyWindow() time.Duration {
	return max(window, time.Duration(50/w.rate*float64(time.Second)))
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// env is where a run finds its binary and keeps its artefacts.
type env struct {
	root    string // repository checkout
	workdir string
	bin     string // csrserver binary
	dscale  int64  // dataset downscale; 0 = the dataset's default
	poll    *http.Client
}

// artDir holds the artefacts every run may reuse, keyed by graph scale:
// the monolithic snapshot a prepare boot published and the per-shard
// snapshots cut from it.
func (e *env) artDir() string {
	return filepath.Join(e.workdir, "artefacts-dscale"+strconv.FormatInt(e.dscale, 10))
}
func (e *env) monoSnapDir() string  { return filepath.Join(e.artDir(), "mono") }
func (e *env) shardSnapDir() string { return filepath.Join(e.artDir(), "shards") }
func (e *env) logDir() string       { return filepath.Join(e.workdir, "logs") }

// buildServer compiles cmd/csrserver from the checkout into the work dir.
func (e *env) buildServer() error {
	if e.bin != "" {
		return nil
	}
	e.bin = filepath.Join(e.workdir, "csrserver")
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/csrserver")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building csrserver: %v\n%s", err, out)
	}
	return nil
}

func (e *env) graphArgs() []string {
	args := []string{"-dataset", dataset, "-r", strconv.Itoa(rank), "-c", strconv.FormatFloat(damping, 'g', -1, 64)}
	if e.dscale > 0 {
		args = append(args, "-dscale", strconv.FormatInt(e.dscale, 10))
	}
	return args
}

// prepare makes the reusable artefacts if they are missing, so any single
// workload runs alone: an untimed boot of the real server publishes the
// monolithic snapshot, and the per-shard snapshots are cut from that same
// index.
func (e *env) prepare() error {
	if _, _, err := core.CurrentSnapshot(e.monoSnapDir()); err != nil {
		if err := os.MkdirAll(e.monoSnapDir(), 0o755); err != nil {
			return err
		}
		t, _, err := e.boot("prepare", topoMono, e.monoSnapDir(), "")
		if err != nil {
			return fmt.Errorf("prepare boot: %w", err)
		}
		t.stop()
	}
	if _, _, err := core.CurrentSnapshot(core.ShardDir(e.shardSnapDir(), wireShards-1)); err == nil {
		return nil
	}
	path, _, err := core.CurrentSnapshot(e.monoSnapDir())
	if err != nil {
		return err
	}
	ix, err := core.MapIndex(path)
	if err != nil {
		return err
	}
	defer ix.Close()
	plan, err := shard.SplitEven(ix.N(), wireShards)
	if err != nil {
		return err
	}
	for s := 0; s < wireShards; s++ {
		lo, hi := plan.Range(s)
		sh, err := ix.Shard(lo, hi)
		if err != nil {
			return err
		}
		if _, _, err := core.WriteShardSnapshot(core.ShardDir(e.shardSnapDir(), s), sh); err != nil {
			return err
		}
	}
	return nil
}

// topology is the set of processes serving one workload; front takes the
// public requests.
type topology struct {
	procs   []*proc
	front   *proc
	workers []*proc
}

func (t *topology) stop() {
	// Front first: a router must stop fanning out before its workers go.
	t.front.stop()
	for _, p := range t.procs {
		p.stop()
	}
}

// boot starts a topology and returns it once every process answers
// /readyz, with the time from the first exec to that point. snapDir is the
// monolithic snapshot directory (ignored by topoWire, whose workers boot
// from the prepared shard snapshots); walDir is used by topoIngest only.
// A failed boot leaves nothing running.
func (e *env) boot(label string, kind topoKind, snapDir, walDir string) (*topology, time.Duration, error) {
	n := 1
	if kind == topoWire {
		n += wireShards
	}
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, 0, err
	}
	t := &topology{}
	start := time.Now()
	fail := func(err error) (*topology, time.Duration, error) {
		for _, p := range t.procs {
			p.stop()
		}
		return nil, 0, err
	}
	add := func(name, addr string, args ...string) (*proc, error) {
		p, err := spawn(e.logDir(), label+"-"+name, e.bin, addr, args...)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, p)
		return p, nil
	}
	switch kind {
	case topoWire:
		for s := 0; s < wireShards; s++ {
			p, err := add("worker"+strconv.Itoa(s), addrs[1+s], "-shardworker", strconv.Itoa(s), "-snapshots", e.shardSnapDir())
			if err != nil {
				return fail(err)
			}
			t.workers = append(t.workers, p)
		}
		// The router dials every worker at boot and exits if one is not
		// listening yet, so the workers must be ready first.
		for _, p := range t.workers {
			if err := p.waitReady(e.poll, time.Minute); err != nil {
				return fail(err)
			}
		}
		if t.front, err = add("router", addrs[0], "-shardaddrs", strings.Join(addrs[1:], ",")); err != nil {
			return fail(err)
		}
	default:
		args := append(e.graphArgs(), "-snapshots", snapDir)
		if kind == topoIngest {
			args = append(args, "-waldir", walDir, "-admintoken", adminToken, "-driftbudget", "0")
		}
		if t.front, err = add("server", addrs[0], args...); err != nil {
			return fail(err)
		}
	}
	if err := t.front.waitReady(e.poll, 3*time.Minute); err != nil {
		return fail(err)
	}
	return t, time.Since(start), nil
}
