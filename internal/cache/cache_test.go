package cache

import (
	"fmt"
	"sync"
	"testing"
)

// size is the entry count, checked against itself: the recency list and
// the key index must always agree.
func size(t *testing.T, c *LRU) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.order.Len() != len(c.items) {
		t.Fatalf("recency list holds %d entries, index %d", c.order.Len(), len(c.items))
	}
	return len(c.items)
}

func TestPutGet(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("missing key found")
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // refresh a
	c.Put("c", 3) // evicts b (least recent)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite refresh")
	}
	if n := size(t, c); n != 2 {
		t.Fatalf("size = %d", n)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v.(int) != 9 {
		t.Fatalf("value = %v", v)
	}
	if n := size(t, c); n != 1 {
		t.Fatalf("size = %d", n)
	}
}

func TestCapacityOnePanicsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	New(0)
}

func TestCapacityOne(t *testing.T) {
	c := New(1)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived capacity-1 eviction")
	}
	if v, ok := c.Get("b"); !ok || v.(int) != 2 {
		t.Fatal("b lost")
	}
}

// TestConcurrentStress hammers Get and Put from parallel goroutines with a
// capacity small enough to force constant eviction, then checks the
// bookkeeping invariants. Run with -race (CI does) to make the
// interleavings meaningful.
func TestConcurrentStress(t *testing.T) {
	const (
		workers  = 16
		opsEach  = 2000
		capacity = 8 // far fewer slots than the 64-key working set
	)
	c := New(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("k%d", (w*131+i*7)%64)
				if i%3 == 2 {
					c.Put(key, key)
				} else if v, ok := c.Get(key); ok && v.(string) != key {
					t.Errorf("corrupt value for %s: %v", key, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// A 64-key working set over 8 slots leaves the cache exactly full.
	if n := size(t, c); n != capacity {
		t.Fatalf("size = %d, want %d", n, capacity)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%100)
				if v, ok := c.Get(key); ok {
					if v.(string) != key {
						t.Errorf("corrupt value for %s: %v", key, v)
						return
					}
				} else {
					c.Put(key, key)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := size(t, c); n > 64 {
		t.Fatalf("size = %d exceeds capacity", n)
	}
}
