package simd

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestDetectedTier prints the tier this machine selects (run it with -v to
// see it in a log) and, on Linux/amd64, holds the CPU check to the kernel's
// own reading of the same CPU: the avx2 and avx flags of /proc/cpuinfo.
func TestDetectedTier(t *testing.T) {
	t.Logf("kernel tier: %v (%s/%s)", Detected(), runtime.GOOS, runtime.GOARCH)
	if got := Tiers(); len(got) != int(Detected())+1 || got[0] != Go || got[len(got)-1] != Detected() {
		t.Fatalf("Tiers() = %v, want go up to %v", got, Detected())
	}
	if runtime.GOARCH != "amd64" {
		if Detected() != Go {
			t.Fatalf("GOARCH=%s detected %v, want go", runtime.GOARCH, Detected())
		}
		return
	}
	if runtime.GOOS != "linux" {
		return
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	want := SSE2
	if slices.Contains(flags, "avx2") && slices.Contains(flags, "avx") {
		want = AVX2
	}
	if Detected() != want {
		t.Fatalf("detected %v, /proc/cpuinfo says %v", Detected(), want)
	}
}

func TestTierNames(t *testing.T) {
	for tier, want := range map[Tier]string{Go: "go", SSE2: "sse2", AVX2: "avx2", 7: "unknown"} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, got, want)
		}
	}
}
