package shard

import (
	"errors"
	"testing"
)

func TestNewPlanValidation(t *testing.T) {
	for _, bad := range [][]int{
		nil,
		{0},
		{1, 5},       // does not start at 0
		{0, 3, 3, 9}, // empty shard
		{0, 5, 2},    // decreasing
	} {
		if _, err := NewPlan(bad); !errors.Is(err, ErrPlan) {
			t.Fatalf("NewPlan(%v): err = %v, want ErrPlan", bad, err)
		}
	}
	p, err := NewPlan([]int{0, 3, 7, 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 3 || p.N() != 10 {
		t.Fatalf("K=%d N=%d, want 3, 10", p.K(), p.N())
	}
	if lo, hi := p.Range(1); lo != 3 || hi != 7 {
		t.Fatalf("Range(1) = [%d, %d), want [3, 7)", lo, hi)
	}
}

func TestNewPlanCopiesBounds(t *testing.T) {
	bounds := []int{0, 4, 8}
	p, err := NewPlan(bounds)
	if err != nil {
		t.Fatal(err)
	}
	bounds[1] = 99
	if lo, hi := p.Range(0); lo != 0 || hi != 4 {
		t.Fatal("plan aliases the caller's bounds slice")
	}
}

func TestSplitEven(t *testing.T) {
	cases := []struct {
		n, k   int
		bounds []int
	}{
		{10, 1, []int{0, 10}},
		{10, 3, []int{0, 4, 7, 10}}, // first n%k shards get the extra node
		{10, 5, []int{0, 2, 4, 6, 8, 10}},
		{3, 7, []int{0, 1, 2, 3}}, // k clamps to n
	}
	for _, c := range cases {
		p, err := SplitEven(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		got := p.bounds
		if len(got) != len(c.bounds) {
			t.Fatalf("SplitEven(%d, %d) = %v, want %v", c.n, c.k, got, c.bounds)
		}
		for i := range got {
			if got[i] != c.bounds[i] {
				t.Fatalf("SplitEven(%d, %d) = %v, want %v", c.n, c.k, got, c.bounds)
			}
		}
	}
	for _, bad := range [][2]int{{0, 1}, {5, 0}, {-1, 2}} {
		if _, err := SplitEven(bad[0], bad[1]); !errors.Is(err, ErrPlan) {
			t.Fatalf("SplitEven(%d, %d): err = %v, want ErrPlan", bad[0], bad[1], err)
		}
	}
}

func TestOwner(t *testing.T) {
	p, err := NewPlan([]int{0, 1, 4, 9})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < p.N(); q++ {
		s := p.Owner(q)
		lo, hi := p.Range(s)
		if q < lo || q >= hi {
			t.Fatalf("Owner(%d) = %d covering [%d, %d)", q, s, lo, hi)
		}
	}
}
