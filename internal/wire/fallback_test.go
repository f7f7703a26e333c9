//go:build faultinject

package wire_test

// fallback_test.go holds a worker's two ways of holding its shard to one
// answer: a refused mmap (fault.SiteIndexMap) boots and reloads onto the
// decode path and serves the mapped worker's bits, and bytes that fail
// verification (fault.SiteIndexVerify, or a real flipped bit) walk the
// recovery ladder and are never left mapped.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/fault"
	"csrplus/internal/shard"
	"csrplus/internal/wire"
)

// bootWith boots shard s from root with plan armed at site for the boot
// alone (a zero site arms nothing).
func bootWith(t *testing.T, root string, s int, site string, plan fault.Plan) (*wire.Worker, error) {
	t.Helper()
	if site != "" {
		fault.Enable(1)
		defer fault.Disable()
		fault.Arm(site, plan)
	}
	return wire.BootWorker(wire.WorkerConfig{Shard: s, SnapshotDir: core.ShardDir(root, s), AdminToken: "sesame"})
}

// rawPost returns the body a worker answers one request with.
func rawPost(t *testing.T, url, path string, req any) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d %s (%v)", path, resp.StatusCode, out, err)
	}
	return string(out)
}

func TestWorkerDecodeFallbackServesMappedBits(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	root := t.TempDir()
	if err := shard.PublishSnapshots(root, ix, 2); err != nil {
		t.Fatal(err)
	}
	mapped, err := bootWith(t, root, 1, "", fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mapped() {
		t.Skip("mmap unavailable here: both workers would decode")
	}
	decoded, err := bootWith(t, root, 1, fault.SiteIndexMap, fault.Plan{ErrProb: 1})
	if err != nil {
		t.Fatalf("a refused mmap must fall back to decoding, got %v", err)
	}
	if decoded.Mapped() {
		t.Fatal("worker booted with mmap refused claims a mapped shard")
	}
	servers := map[string]*httptest.Server{}
	for name, w := range map[string]*wire.Worker{"mapped": mapped, "decoded": decoded} {
		servers[name] = httptest.NewServer(w.Handler())
		defer servers[name].Close()
	}
	lo, hi := mapped.Slot().Lo(), mapped.Slot().Hi()
	compare := func(stage string) {
		t.Helper()
		for q := lo; q < hi; q += 7 {
			var u wire.URowsResponse
			if err := json.Unmarshal([]byte(rawPost(t, servers["mapped"].URL, "/shard/urows", wire.URowsRequest{Nodes: []int{q}})), &u); err != nil {
				t.Fatal(err)
			}
			for _, call := range []struct {
				path string
				req  any
			}{
				{"/shard/urows", wire.URowsRequest{Nodes: []int{q, lo, hi - 1}}},
				{"/shard/query", wire.QueryRequest{Queries: []int{q}, UQ: u.Rows, K: 10}},
				{"/shard/query", wire.QueryRequest{Queries: []int{q}, UQ: u.Rows, K: 10, Rank: 2}},
				{"/shard/scores", wire.ScoresRequest{Queries: []int{q}, UQ: u.Rows, Rows: []int{lo, q, hi - 1}}},
			} {
				m := rawPost(t, servers["mapped"].URL, call.path, call.req)
				if d := rawPost(t, servers["decoded"].URL, call.path, call.req); d != m {
					t.Fatalf("%s: %s %+v: decoded worker answered %s, mapped %s", stage, call.path, call.req, d, m)
				}
			}
		}
	}
	compare("boot")

	// A reload keeps each on its path: publish the same factors again.
	if err := shard.PublishSnapshots(root, ix, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := mapped.Reload(); err != nil {
		t.Fatal(err)
	}
	fault.Enable(1)
	fault.Arm(fault.SiteIndexMap, fault.Plan{ErrProb: 1})
	_, err = decoded.Reload()
	fault.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mapped() || decoded.Mapped() {
		t.Fatalf("after reloads mapped=%v decoded=%v, want true/false", mapped.Mapped(), decoded.Mapped())
	}
	compare("reload")
}

// mapsOf reports whether this process maps any file whose path contains
// path, from /proc/self/maps; ok is false where there is no such file.
func mapsOf(t *testing.T, path string) (mapped, ok bool) {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return false, false
	}
	return strings.Contains(string(maps), path), true
}

func TestWorkerCorruptShardNeverMaps(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	root := t.TempDir()
	for i := 0; i < 2; i++ {
		if err := shard.PublishSnapshots(root, ix, 2); err != nil {
			t.Fatal(err)
		}
	}
	dir := core.ShardDir(root, 0)
	if _, ok := mapsOf(t, dir); !ok {
		t.Skip("no /proc/self/maps here")
	}

	// Every generation fails verification: the ladder runs out, the boot
	// fails, and nothing it mapped to check is left behind.
	if _, err := bootWith(t, root, 0, fault.SiteIndexVerify, fault.Plan{ErrProb: 1}); !errors.Is(err, core.ErrNoSnapshot) {
		t.Fatalf("boot with every verify failing: err = %v, want ErrNoSnapshot", err)
	}
	if m, _ := mapsOf(t, dir); m {
		t.Fatal("a shard file that failed verification is still mapped")
	}

	// A real flipped bit in the newest generation: the boot recovers to the
	// one before, maps that, and never the corrupt file.
	newest := filepath.Join(dir, core.SnapshotName(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-100] ^= 0x10 // inside F, the last section
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := bootWith(t, root, 0, "", fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := mapsOf(t, newest); m {
		t.Fatal("the corrupt newest generation is mapped")
	}
	if m, _ := mapsOf(t, filepath.Join(dir, core.SnapshotName(1))); m != w.Mapped() {
		t.Fatalf("recovered generation mapped in /proc = %v, worker says %v", m, w.Mapped())
	}

	// A reload whose candidate fails verification keeps the old generation
	// serving and leaves the candidate unmapped.
	if err := shard.PublishSnapshots(root, ix, 2); err != nil {
		t.Fatal(err)
	}
	gen := w.Slot().Generation()
	fault.Enable(1)
	fault.Arm(fault.SiteIndexVerify, fault.Plan{ErrProb: 1})
	_, err = w.Reload()
	fault.Disable()
	if !errors.Is(err, core.ErrNoSnapshot) {
		t.Fatalf("reload with every verify failing: err = %v, want ErrNoSnapshot", err)
	}
	if got := w.Slot().Generation(); got != gen {
		t.Fatalf("failed reload moved the slot to generation %d", got)
	}
	if m, _ := mapsOf(t, filepath.Join(dir, core.SnapshotName(3))); m {
		t.Fatal("a reload candidate that failed verification is still mapped")
	}
}
