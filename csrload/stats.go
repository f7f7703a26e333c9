package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule; NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentile is the highest of p90, p99 and p99.9 that still has at
// least ten samples beyond it, or 50 when even p90 does not: a tail read
// off fewer samples is one request's luck, not a property of the system.
func tailPercentile(n int) float64 {
	tail := 50.0
	for _, perMille := range []int{900, 990, 999} {
		if n*(1000-perMille)/1000 >= 10 {
			tail = float64(perMille) / 10
		}
	}
	return tail
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// byWindow groups the indexes of at by the width-long interval each instant
// falls in, keeping only the intervals that lie wholly inside total.
func byWindow(at []time.Duration, width, total time.Duration) [][]int {
	out := make([][]int, int(total/width))
	for i, t := range at {
		if w := int(t / width); t >= 0 && w < len(out) {
			out[w] = append(out[w], i)
		}
	}
	return out
}

// medianWindow applies f to every window and returns the median of the
// results: a statistic of the typical window, which a few disturbed windows
// cannot move.
func medianWindow(windows [][]int, f func(w int, members []int) float64) float64 {
	per := make([]float64, len(windows))
	for w, members := range windows {
		per[w] = f(w, members)
	}
	return median(per)
}
