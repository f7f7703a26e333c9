// Package cache is a small, concurrency-safe LRU. Nothing in the serving
// path uses it: csrserver answers every request from its generation and
// keeps no results. What remains — LRU, New, Get and Put — is the surface
// the benchmark harness (csrload/layers.go and its tests) still compiles
// against; the package goes when that harness stops timing an LRU.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity least-recently-used map from string keys to
// arbitrary values. The zero value is unusable; use New.
type LRU struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent
	items    map[string]*list.Element
}

type entry struct {
	key   string
	value interface{}
}

// New returns an LRU holding at most capacity entries.
// It panics if capacity < 1: a cache that can hold nothing is a caller bug.
func New(capacity int) *LRU {
	if capacity < 1 {
		panic("cache: capacity must be >= 1")
	}
	return &LRU{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached value and whether it was present, refreshing the
// entry's recency.
func (c *LRU) Get(key string) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// Put inserts or refreshes key -> value, evicting the least-recently-used
// entry when full.
func (c *LRU) Put(key string, value interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).value = value
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		if oldest := c.order.Back(); oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*entry).key)
		}
	}
	c.items[key] = c.order.PushFront(&entry{key, value})
}
