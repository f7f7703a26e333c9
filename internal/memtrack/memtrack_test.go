package memtrack

import (
	"strings"
	"sync"
	"testing"
)

func TestAllocFreePeak(t *testing.T) {
	tr := New()
	tr.Alloc("a/x", 100)
	tr.Alloc("b/y", 50)
	if tr.Current() != 150 || tr.Peak() != 150 {
		t.Fatalf("current=%d peak=%d", tr.Current(), tr.Peak())
	}
	tr.Free("a/x", 100)
	if tr.Current() != 50 {
		t.Fatalf("current=%d, want 50", tr.Current())
	}
	if tr.Peak() != 150 {
		t.Fatalf("peak=%d, want 150 (high-water mark)", tr.Peak())
	}
	tr.Alloc("a/z", 10)
	if tr.Peak() != 150 {
		t.Fatalf("peak moved to %d", tr.Peak())
	}
}

func TestCurrentFloorsAtZero(t *testing.T) {
	tr := New()
	tr.Alloc("x", 5)
	tr.Free("x", 50)
	if tr.Current() != 0 {
		t.Fatalf("current=%d, want 0", tr.Current())
	}
}

func TestPeakByPrefix(t *testing.T) {
	tr := New()
	tr.Alloc("precompute/Q", 100)
	tr.Alloc("precompute/Z", 40)
	tr.Free("precompute/Q", 100)
	tr.Alloc("query/S", 30)
	if got := tr.PeakByPrefix("precompute/"); got != 40 {
		t.Fatalf("precompute net = %d, want 40", got)
	}
	if got := tr.PeakByPrefix("query/"); got != 30 {
		t.Fatalf("query net = %d, want 30", got)
	}
}

func TestNilTrackerIsNoop(t *testing.T) {
	var tr *Tracker
	tr.Alloc("x", 10) // must not panic
	tr.Free("x", 10)
	if tr.Current() != 0 || tr.Peak() != 0 || tr.PeakByPrefix("x") != 0 {
		t.Fatal("nil tracker returned nonzero state")
	}
}

func TestNegativeAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Alloc did not panic")
		}
	}()
	New().Alloc("x", -1)
}

func TestConcurrentUse(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Alloc("c", 1)
			}
		}()
	}
	wg.Wait()
	if tr.Current() != 8000 {
		t.Fatalf("current=%d, want 8000", tr.Current())
	}
}

func TestHuman(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{3 << 20, "3.0 MiB"},
		{5 << 30, "5.0 GiB"},
	}
	for _, c := range cases {
		if got := Human(c.in); got != c.want {
			t.Fatalf("Human(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestHumanFraction(t *testing.T) {
	if got := Human(1536); !strings.HasSuffix(got, "KiB") {
		t.Fatalf("Human(1536) = %q", got)
	}
}
