//go:build cluster

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/shard"
)

const (
	clusterN    = 151
	clusterRank = 5
	clusterC    = 0.6
	workerCount = 4
	adminToken  = "cluster-harness"
)

// edgeList builds a deterministic connected graph and renders it as the
// SNAP-style edge list the -graph flag parses. The same bytes feed both
// the monolithic server (via its file loader) and the in-process index
// the shard snapshots are cut from, so the two deployments start from
// the identical graph object.
func edgeList() []byte {
	var buf bytes.Buffer
	state := uint64(99)*2654435761 + 1
	next := func(m int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(m))
	}
	for i := 0; i < clusterN; i++ {
		fmt.Fprintf(&buf, "%d %d\n", i, (i+1)%clusterN)
		for e := 0; e < 3; e++ {
			fmt.Fprintf(&buf, "%d %d\n", next(clusterN), next(clusterN))
		}
	}
	return buf.Bytes()
}

// proc is one spawned csrserver with its log capture.
type proc struct {
	cmd     *exec.Cmd
	logPath string
}

func (p *proc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
		_, _ = p.cmd.Process.Wait()
	}
}

type harness struct {
	t       *testing.T
	bin     string
	logDir  string
	workers []*proc
	router  *proc
	mono    *proc

	routerURL string
	monoURL   string
	plan      shard.Plan
}

func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	listeners := make([]net.Listener, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return ports
}

func (h *harness) spawn(name string, args ...string) *proc {
	return h.spawnEnv(name, nil, args...)
}

// spawnEnv spawns with extra environment entries appended to the
// parent's — how the crash-replay harness arms fault injection inside a
// faultinject-built csrserver (CSRSERVER_FAULTS/CSRSERVER_FAULT_SEED).
func (h *harness) spawnEnv(name string, env []string, args ...string) *proc {
	h.t.Helper()
	logPath := filepath.Join(h.logDir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		h.t.Fatal(err)
	}
	cmd := exec.Command(h.bin, args...)
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		h.t.Fatalf("starting %s: %v", name, err)
	}
	p := &proc{cmd: cmd, logPath: logPath}
	h.t.Cleanup(func() {
		p.kill()
		logFile.Close()
		if h.t.Failed() {
			data, _ := os.ReadFile(logPath)
			if len(data) > 4096 {
				data = data[len(data)-4096:]
			}
			h.t.Logf("---- %s log tail ----\n%s", name, data)
		}
	})
	return p
}

func waitReady(t *testing.T, url string, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	var last string
	for time.Now().Before(end) {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			last = fmt.Sprintf("%d %s", resp.StatusCode, body)
		} else {
			last = err.Error()
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became ready: %s", url, last)
}

// newHarness resolves the binary under test and the log directory.
func newHarness(t *testing.T) *harness {
	bin := os.Getenv("CSRSERVER_BIN")
	if bin == "" {
		t.Skip("CSRSERVER_BIN not set; build cmd/csrserver and point CSRSERVER_BIN at it")
	}
	logDir := os.Getenv("CLUSTER_LOG_DIR")
	if logDir == "" {
		logDir = t.TempDir()
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, bin: bin, logDir: logDir}
}

// bootCluster writes the graph + per-shard snapshots, then spawns
// 4 shard workers, a wire router over them, and a monolithic csrserver
// over the same edge list.
func bootCluster(t *testing.T) *harness {
	h := newHarness(t)
	tmp := t.TempDir()
	edges := edgeList()
	edgePath := filepath.Join(tmp, "edges.txt")
	if err := os.WriteFile(edgePath, edges, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := csrplus.ReadGraph(bytes.NewReader(edges), clusterN)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: clusterRank, Damping: clusterC})
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := eng.CoreIndex()
	if !ok {
		t.Fatal("CSR+ engine without a core index")
	}
	h.serve(ix, filepath.Join(tmp, "snapshots"),
		"-graph", edgePath,
		"-n", fmt.Sprint(clusterN),
		"-r", fmt.Sprint(clusterRank),
		"-c", fmt.Sprint(clusterC),
	)
	return h
}

// serve cuts ix into per-shard snapshots under snapRoot and spawns the 4
// workers that boot from them, a wire router over those, and a monolithic
// csrserver from monoArgs.
func (h *harness) serve(ix *core.Index, snapRoot string, monoArgs ...string) {
	t := h.t
	plan, err := shard.SplitEven(ix.N(), workerCount)
	if err != nil {
		t.Fatal(err)
	}
	h.plan = plan
	if err := shard.PublishSnapshots(snapRoot, ix, workerCount); err != nil {
		t.Fatal(err)
	}

	ports := freePorts(t, workerCount+2)
	workerAddrs := make([]string, workerCount)
	for s := 0; s < workerCount; s++ {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[s])
		workerAddrs[s] = addr
		h.workers = append(h.workers, h.spawn(fmt.Sprintf("worker-%d", s),
			"-shardworker", fmt.Sprint(s),
			"-snapshots", snapRoot,
			"-addr", addr,
			"-admintoken", adminToken,
		))
	}
	// The router dials every worker at boot and refuses to start while
	// one is unreachable; bring the workers up first.
	for _, addr := range workerAddrs {
		waitReady(t, "http://"+addr, 60*time.Second)
	}
	routerAddr := fmt.Sprintf("127.0.0.1:%d", ports[workerCount])
	h.routerURL = "http://" + routerAddr
	h.router = h.spawn("router",
		"-shardaddrs", strings.Join(workerAddrs, ","),
		"-addr", routerAddr,
		"-admintoken", adminToken,
	)
	monoAddr := fmt.Sprintf("127.0.0.1:%d", ports[workerCount+1])
	h.monoURL = "http://" + monoAddr
	h.mono = h.spawn("monolithic", append(monoArgs, "-addr", monoAddr)...)

	waitReady(t, h.routerURL, 60*time.Second)
	waitReady(t, h.monoURL, 60*time.Second)
}

type topkBody struct {
	Matches []struct {
		Node  int     `json:"node"`
		Score float64 `json:"score"`
	} `json:"matches"`
	Degraded *struct {
		MissingShards int     `json:"missing_shards"`
		ErrorBound    float64 `json:"error_bound"`
	} `json:"degraded"`
}

type pairsBody struct {
	Pairs []struct {
		Query  int     `json:"query"`
		Target int     `json:"target"`
		Score  float64 `json:"score"`
	} `json:"pairs"`
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

// TestClusterMatchesMonolithicAndSurvivesWorkerKill is the wire-split
// acceptance run: a real 4-worker cluster answers /topk and /similarity
// bitwise-identically to a monolithic csrserver over the same graph, and
// keeps serving tagged degraded answers after one worker is killed.
func TestClusterMatchesMonolithicAndSurvivesWorkerKill(t *testing.T) {
	h := bootCluster(t)
	h.wantSameAnswers([]string{"7", "0", "13,42,99", "3,50,50,120"}, []int{1, 4, 10}, "0,17,88,150")

	// Kill the last worker with prejudice. Queries whose nodes live on
	// other shards must keep answering — degraded and tagged, not erroring
	// — and the router must stay ready.
	victim := workerCount - 1
	lo, _ := h.plan.Range(victim)
	if err := h.workers[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = h.workers[victim].cmd.Process.Wait()

	deadline := time.Now().Add(30 * time.Second)
	for {
		var got topkBody
		code := getJSON(t, h.routerURL+"/topk?nodes=7&k=5", &got)
		if code == http.StatusOK && got.Degraded != nil {
			if got.Degraded.MissingShards != 1 {
				t.Fatalf("degraded tag reports %d missing shards, want 1", got.Degraded.MissingShards)
			}
			if got.Degraded.ErrorBound <= 0 {
				t.Fatalf("degraded answer carries no error bound: %+v", got.Degraded)
			}
			if len(got.Matches) == 0 {
				t.Fatal("degraded answer is empty")
			}
			break
		}
		// The first request after the kill may still be answered exactly
		// from an in-flight connection, or hit the retry window; keep
		// probing until the degraded tag appears.
		if time.Now().After(deadline) {
			t.Fatalf("router never served a tagged degraded answer after the kill (last code %d)", code)
		}
		time.Sleep(100 * time.Millisecond)
	}
	resp, err := http.Get(h.routerURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz %d after worker kill; degraded serving must stay ready", resp.StatusCode)
	}
	// A query owned by the dead shard cannot be answered exactly or
	// degraded; it must fail with a typed upstream error, not hang.
	var gone topkBody
	if code := getJSON(t, h.routerURL+fmt.Sprintf("/topk?nodes=%d&k=5", lo), &gone); code == http.StatusOK {
		t.Fatalf("query owned by the killed shard returned 200: %+v", gone)
	}
}

// wantSameAnswers holds the router and the monolithic server to each other
// bit for bit: /topk of every query set at every k, and /similarity of every
// query set against targets.
func (h *harness) wantSameAnswers(querySets []string, ks []int, targets string) {
	t := h.t
	t.Helper()
	for _, nodes := range querySets {
		for _, k := range ks {
			path := fmt.Sprintf("/topk?nodes=%s&k=%d", nodes, k)
			var got, want topkBody
			if code := getJSON(t, h.routerURL+path, &got); code != http.StatusOK {
				t.Fatalf("router %s: %d", path, code)
			}
			if code := getJSON(t, h.monoURL+path, &want); code != http.StatusOK {
				t.Fatalf("monolithic %s: %d", path, code)
			}
			if got.Degraded != nil {
				t.Fatalf("healthy cluster tagged degraded on %s: %+v", path, got.Degraded)
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("%s: router %d matches, monolithic %d", path, len(got.Matches), len(want.Matches))
			}
			for i := range want.Matches {
				if got.Matches[i].Node != want.Matches[i].Node ||
					math.Float64bits(got.Matches[i].Score) != math.Float64bits(want.Matches[i].Score) {
					t.Fatalf("%s match %d: router (%d, %x), monolithic (%d, %x)", path, i,
						got.Matches[i].Node, math.Float64bits(got.Matches[i].Score),
						want.Matches[i].Node, math.Float64bits(want.Matches[i].Score))
				}
			}
		}
		simPath := fmt.Sprintf("/similarity?nodes=%s&targets=%s", nodes, targets)
		var got, want pairsBody
		if code := getJSON(t, h.routerURL+simPath, &got); code != http.StatusOK {
			t.Fatalf("router %s: %d", simPath, code)
		}
		if code := getJSON(t, h.monoURL+simPath, &want); code != http.StatusOK {
			t.Fatalf("monolithic %s: %d", simPath, code)
		}
		if len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("%s: router %d pairs, monolithic %d", simPath, len(got.Pairs), len(want.Pairs))
		}
		for i := range want.Pairs {
			if got.Pairs[i] != want.Pairs[i] {
				t.Fatalf("%s pair %d: router %+v, monolithic %+v", simPath, i, got.Pairs[i], want.Pairs[i])
			}
		}
	}

}

// TestClusterCompactedMatchesDenseV2 is the compacted-format run over the
// wire: the monolithic server boots from a file that stores every row of
// an index — a quarter of them all zero — copied into its snapshot
// directory, and the workers from per-shard
// files cut from the same index with those rows left out. The two deployments must answer /topk and /similarity bit for
// bit, for sources, targets and excluded nodes among the rows nobody
// stores, and for k past what is stored.
func TestClusterCompactedMatchesDenseV2(t *testing.T) {
	h := newHarness(t)
	full, err := filepath.Abs(filepath.Join("..", "core", "testdata", "index.v5-sparse.csrx"))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := core.LoadIndex(full)
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	compact, err := core.LoadIndex(filepath.Join(filepath.Dir(full), "index.v5-compact.csrx"))
	if err != nil {
		t.Fatal(err)
	}
	defer compact.Close()
	if compact.Stored() >= dense.Stored() {
		t.Fatalf("fixtures store %d and %d rows: nothing was left out", dense.Stored(), compact.Stored())
	}
	tmp := t.TempDir()
	graphPath := filepath.Join(tmp, "edges.txt") // named by the flags, read by no boot from a snapshot
	if err := os.WriteFile(graphPath, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	monoDir := filepath.Join(tmp, "mono")
	if err := os.Mkdir(monoDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(monoDir, core.SnapshotName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	h.serve(compact, filepath.Join(tmp, "snapshots"), "-graph", graphPath, "-n", fmt.Sprint(dense.N()), "-snapshots", monoDir)
	// 3, 7, 11 and 47 are rows the workers do not store.
	h.wantSameAnswers([]string{"0", "3", "47", "8,16", "3,8,47,8", "3,7,11", "46,0,3"},
		[]int{1, 5, compact.Stored(), compact.Stored() + 1, dense.N()}, "0,3,7,8,16,46,47")
}
