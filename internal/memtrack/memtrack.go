// Package memtrack provides deterministic, analytic memory accounting for
// the reproduction's experiments. Go's garbage collector makes process RSS
// a noisy proxy for an algorithm's working set, and the paper's memory
// figures (Figures 6–9) compare *algorithmic* footprints. Each algorithm
// therefore reports the bytes of every structure it allocates and releases
// to a Tracker, which maintains current and peak usage per label prefix.
//
// All methods are safe on a nil *Tracker (no-ops), so algorithms take an
// optional tracker without nil checks at every call site.
package memtrack

import (
	"fmt"
	"strings"
	"sync"
)

// Tracker accumulates analytic allocation counts. It is safe for
// concurrent use.
type Tracker struct {
	mu      sync.Mutex
	current int64
	peak    int64
	byLabel map[string]int64
}

// New returns an empty tracker.
func New() *Tracker {
	return &Tracker{byLabel: make(map[string]int64)}
}

// Alloc records bytes allocated under label (e.g. "precompute/Z").
// Negative sizes are rejected with a panic: they indicate a caller bug.
func (t *Tracker) Alloc(label string, bytes int64) {
	if t == nil {
		return
	}
	if bytes < 0 {
		panic(fmt.Sprintf("memtrack: Alloc(%q, %d): negative size", label, bytes))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.current += bytes
	if t.current > t.peak {
		t.peak = t.current
	}
	t.byLabel[label] += bytes
}

// Free records bytes released under label. Freeing more than was allocated
// under a label is tolerated (the label floor is unchecked) but total
// current usage is floored at zero.
func (t *Tracker) Free(label string, bytes int64) {
	if t == nil {
		return
	}
	if bytes < 0 {
		panic(fmt.Sprintf("memtrack: Free(%q, %d): negative size", label, bytes))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.current -= bytes
	if t.current < 0 {
		t.current = 0
	}
	t.byLabel[label] -= bytes
}

// Current returns the live analytic byte count.
func (t *Tracker) Current() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current
}

// Peak returns the high-water mark.
func (t *Tracker) Peak() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// PeakByPrefix returns the net bytes recorded under labels sharing the
// given prefix (e.g. "precompute/" vs "query/"). Net = allocs - frees, so
// for phases that free scratch structures this reports what the phase left
// resident; combine with Peak for high-water analysis.
func (t *Tracker) PeakByPrefix(prefix string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for label, b := range t.byLabel {
		if strings.HasPrefix(label, prefix) {
			sum += b
		}
	}
	return sum
}

// Human renders a byte count with binary-prefix units ("3.2 MiB").
func Human(bytes int64) string {
	const unit = 1024
	if bytes < unit {
		return fmt.Sprintf("%d B", bytes)
	}
	div, exp := int64(unit), 0
	for n := bytes / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(bytes)/float64(div), "KMGTPE"[exp])
}
