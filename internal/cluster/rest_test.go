//go:build cluster

package cluster

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// procStatusKB reads one "<key>: <n> kB" line of /proc/<pid>/status.
func procStatusKB(t *testing.T, pid int, key string) float64 {
	t.Helper()
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		t.Skipf("no /proc status here: %v", err)
	}
	_, rest, ok := strings.Cut(string(data), key+":")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 2 || fields[1] != "kB" {
		t.Fatalf("/proc/%d/status has no %s line", pid, key)
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

// TestColdBootRestsLikeSnapshotBoot: the process that built and published an
// index rests where the process that mapped the same file rests. A cold boot
// of the WT stand-in and a boot from the directory it published each take
// 2000 point queries; their resident sets are within 15 % of each other, and
// the cold boot's anonymous memory — where the heap factors, the boot graph
// and the collector's headroom over both used to sit — is under 12 MB.
func TestColdBootRestsLikeSnapshotBoot(t *testing.T) {
	h := newHarness(t)
	snaps := t.TempDir()
	ports := freePorts(t, 2)
	boot := func(name string, port int) (*proc, string) {
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		p := h.spawn(name, "-dataset", "WT", "-r", "16", "-c", "0.6", "-snapshots", snaps, "-addr", addr)
		waitReady(t, "http://"+addr, 2*time.Minute)
		return p, "http://" + addr
	}
	load := func(url string) {
		for i := 0; i < 2000; i++ {
			resp, err := http.Get(fmt.Sprintf("%s/topk?node=%d&k=10", url, (i*7919+13)%131072))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %d: HTTP %d", i, resp.StatusCode)
			}
		}
	}
	cold, coldURL := boot("rest-cold", ports[0])
	warm, warmURL := boot("rest-snapshot", ports[1]) // a generation exists: the cold boot is ready
	var sources [2]struct {
		Source string `json:"source"`
	}
	getJSON(t, coldURL+"/stats", &sources[0])
	getJSON(t, warmURL+"/stats", &sources[1])
	if sources[0].Source != "rebuild" || sources[1].Source != "snapshot" {
		t.Fatalf("booted from %q and %q, want rebuild and snapshot", sources[0].Source, sources[1].Source)
	}
	load(coldURL)
	load(warmURL)

	coldRSS, warmRSS := procStatusKB(t, cold.cmd.Process.Pid, "VmRSS"), procStatusKB(t, warm.cmd.Process.Pid, "VmRSS")
	coldAnon := procStatusKB(t, cold.cmd.Process.Pid, "RssAnon")
	t.Logf("VmRSS cold %.1f MB, snapshot %.1f MB; cold RssAnon %.1f MB", coldRSS/1024, warmRSS/1024, coldAnon/1024)
	if math.Abs(coldRSS-warmRSS) > 0.15*math.Max(coldRSS, warmRSS) {
		t.Errorf("cold boot rests at %.1f MB, snapshot boot at %.1f MB: more than 15 %% apart", coldRSS/1024, warmRSS/1024)
	}
	if coldAnon > 12*1024 {
		t.Errorf("cold boot holds %.1f MB of anonymous memory, want at most 12 MB", coldAnon/1024)
	}
}
