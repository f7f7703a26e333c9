// Package topk selects the k highest-scoring nodes from a similarity
// column using a bounded min-heap — O(n log k) instead of a full sort,
// which matters when similarity searches over million-node graphs only
// need a short result list. The heap is fed in bands (Selector), so the
// column never has to exist in one piece.
//
// Ordering contract: every selection and merge in this package orders
// items by descending score with ties broken by ascending node id, and
// the tie-break is part of the API — it is what makes a scatter–gather
// top-k over row-partitioned shards (internal/shard) return exactly the
// same items in exactly the same order as a single engine over the whole
// graph, at any shard count.
package topk

import (
	"math"
	"sort"
)

// Item pairs a node id with its similarity score.
type Item struct {
	Node  int
	Score float64
}

// itemLess is the package's one ordering: higher scores first, ties
// broken by smaller node id. Select's result order, Merge's result
// order, and the selector's eviction rule are all derived from it, so the
// selection is a deterministic function of the (score, node) multiset —
// never of input order, partitioning, or sort stability.
func itemLess(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Node < b.Node
}

// worse reports whether a ranks strictly below b under itemLess — the
// selector's heap keeps its worst item at the root.
func worse(a, b Item) bool { return itemLess(b, a) }

// Selector is the package's one selection loop: a bounded top-k over
// scores that arrive in bands. Push feeds it successive score slices (any
// split, any order — the result is a function of the (score, node)
// multiset alone), Items finishes it. Holding at most k items, it lets a
// caller rank n scores while only ever materialising one band of them.
//
// The k kept items live in a binary heap with the worst-ranked item at
// the root, hand-rolled over []Item: no container/heap, so no interface
// boxing per admitted item.
type Selector struct {
	k       int
	exclude map[int]bool
	h       []Item
}

// NewSelector returns a selector for the k best items, dropping every
// node with exclude[node] == true (nil excludes nothing). k <= 0 selects
// nothing.
func NewSelector(k int, exclude map[int]bool) *Selector {
	s := &Selector{k: k, exclude: exclude}
	if k > 0 {
		s.h = make([]Item, 0, k)
	}
	return s
}

// Push offers one band: scores[i] belongs to node base+i. NaN scores are
// skipped: NaN compares false with everything, so letting one into the
// heap would corrupt the heap invariant (and a NaN can reach here from a
// diverged or denormal similarity column). ±Inf orders normally and is
// kept.
//
// Once k items are held, a score is tested against the k-th best before
// anything else: almost every score of a long scan fails that one
// comparison (which NaN fails too), so the node id and the exclusion map
// are looked up only for the few that would displace a kept item.
func (s *Selector) Push(base int, scores []float64) { s.push(base, nil, scores) }

// PushIDs is Push for a band whose nodes are not consecutive: scores[i]
// belongs to node ids[i] — the rows a support-compacted scan stores.
func (s *Selector) PushIDs(ids []int32, scores []float64) { s.push(0, ids, scores) }

// push is the one selection loop: node i of the band is ids[i], or base+i
// when ids is nil.
func (s *Selector) push(base int, ids []int32, scores []float64) {
	if s.k <= 0 {
		return
	}
	id := func(i int) int {
		if ids != nil {
			return int(ids[i])
		}
		return base + i
	}
	i := 0
	for ; i < len(scores) && len(s.h) < s.k; i++ {
		score, node := scores[i], id(i)
		if math.IsNaN(score) || s.exclude[node] {
			continue
		}
		s.h = append(s.h, Item{node, score})
		s.up(len(s.h) - 1)
	}
	h := s.h
	for ; i < len(scores); i++ {
		score := scores[i]
		if !(score >= h[0].Score) {
			continue
		}
		if node := id(i); score > h[0].Score || node < h[0].Node {
			if s.exclude[node] {
				continue
			}
			h[0] = Item{node, score}
			s.down(0, len(h))
		}
	}
}

// Items returns the kept items ordered by descending score (ascending
// node id among ties) and ends the selection: the selector must not be
// pushed to afterwards. The heap is sorted in place — popping the worst
// item to the back until none is left — so finishing allocates nothing.
func (s *Selector) Items() []Item {
	for n := len(s.h) - 1; n > 0; n-- {
		s.h[0], s.h[n] = s.h[n], s.h[0]
		s.down(0, n)
	}
	return s.h
}

func (s *Selector) up(i int) {
	h := s.h
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// down restores the heap below i within h[:n].
func (s *Selector) down(i, n int) {
	h := s.h
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && worse(h[r], h[child]) {
			child = r
		}
		if !worse(h[child], h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// Select returns the k highest-scoring items of scores, ordered by
// descending score (ascending node id among ties). exclude, when >= 0,
// drops that node (callers typically exclude the query node itself).
// k <= 0 returns nil; k beyond the candidate count returns all candidates.
//
// Multi-source callers that must drop every query node should use
// SelectSet; Select keeps the historical single-node signature as a thin
// wrapper over it.
func Select(scores []float64, k, exclude int) []Item {
	if exclude < 0 {
		return SelectRange(scores, k, 0, nil)
	}
	return SelectRange(scores, k, 0, map[int]bool{exclude: true})
}

// SelectSet is Select with an exclusion set: every node with
// exclude[node] == true is dropped from the candidates — the multi-source
// case, where all source nodes must be excluded from their own top-k,
// not just one. A nil map excludes nothing.
func SelectSet(scores []float64, k int, exclude map[int]bool) []Item {
	return SelectRange(scores, k, 0, exclude)
}

// SelectRange is the one-shot selection over a materialised score slice:
// scores[i] belongs to node base+i, and the exclusion set holds those
// global node ids. It exists for row-partitioned shards, where a shard
// scores only its contiguous node range [base, base+len(scores)) but
// results and exclusions are in global ids; base 0 recovers SelectSet.
// It is a Selector pushed once — NaN handling and ordering are Push's.
func SelectRange(scores []float64, k, base int, exclude map[int]bool) []Item {
	if k <= 0 {
		return nil
	}
	s := NewSelector(k, exclude)
	s.Push(base, scores)
	return s.Items()
}

// Merge combines per-shard partial top-k lists into the exact global
// top-k: the k best items of the union under the package ordering
// (descending score, ascending node id among ties). Each input list must
// itself be a top-k of its shard's candidates — then, because every
// candidate node lives in exactly one list, the merge of the partials is
// provably the top-k of the union of all candidates (any global top-k
// item is a top-k item of its own shard). The result is a deterministic
// function of the items alone: list order, list count, and score ties
// cannot change it, which is what makes scatter–gather results invariant
// to the shard count. Items are not deduplicated — callers guarantee
// node-disjoint inputs.
func Merge(k int, lists ...[]Item) []Item {
	if k <= 0 {
		return nil
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	all := make([]Item, 0, total)
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return itemLess(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}
