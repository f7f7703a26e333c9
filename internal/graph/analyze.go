package graph

// analyze.go provides the structural analytics used to characterise the
// synthetic dataset stand-ins against the originals' published shapes
// (degree skew, connectivity) — the evidence behind DESIGN.md §5's claim
// that the substitution preserves the behaviour the experiments depend on.

import (
	"math"
	"sort"
)

// Reverse returns the graph with every edge flipped. CoSimRank propagates
// along in-edges; the reverse view turns out-link analyses into in-link
// ones without touching the algorithms.
func (g *Graph) Reverse() *Graph {
	return &Graph{adj: g.adj.Transpose()}
}

// WeakComponents labels every node with a weakly-connected component id
// (0-based, in order of discovery) and returns the labels plus component
// count. Runs one union-find pass over the edges.
func (g *Graph) WeakComponents() (labels []int, count int) {
	n := g.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for u := 0; u < n; u++ {
		for p := g.adj.RowPtr[u]; p < g.adj.RowPtr[u+1]; p++ {
			union(u, int(g.adj.ColIdx[p]))
		}
	}
	labels = make([]int, n)
	next := 0
	seen := make(map[int]int)
	for i := 0; i < n; i++ {
		root := find(i)
		id, ok := seen[root]
		if !ok {
			id = next
			seen[root] = id
			next++
		}
		labels[i] = id
	}
	return labels, next
}

// StrongComponents labels every node with a strongly-connected component
// id using Tarjan's algorithm (iterative, so million-node graphs do not
// blow the goroutine stack). Ids are 0-based in reverse topological order
// of the condensation.
func (g *Graph) StrongComponents() (labels []int, count int) {
	n := g.N()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	labels = make([]int, n)
	for i := range index {
		index[i] = unvisited
		labels[i] = unvisited
	}
	var stack []int
	next := 0
	// Explicit DFS frames: node plus the adjacency cursor.
	type frame struct {
		node int
		ptr  int64
	}
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames := []frame{{start, g.adj.RowPtr[start]}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			u := f.node
			if f.ptr < g.adj.RowPtr[u+1] {
				v := int(g.adj.ColIdx[f.ptr])
				f.ptr++
				if index[v] == unvisited {
					index[v] = next
					low[v] = next
					next++
					stack = append(stack, v)
					onStack[v] = true
					frames = append(frames, frame{v, g.adj.RowPtr[v]})
				} else if onStack[v] && index[v] < low[u] {
					low[u] = index[v]
				}
				continue
			}
			// u is finished.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[u] < low[parent] {
					low[parent] = low[u]
				}
			}
			if low[u] == index[u] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					labels[w] = count
					if w == u {
						break
					}
				}
				count++
			}
		}
	}
	return labels, count
}

// DegreeHistogram buckets a degree sequence into power-of-two bins:
// bin k counts nodes with degree in [2^k, 2^(k+1)). Bin 0 also holds
// degree-0 nodes (reported separately in Zeros).
type DegreeHistogram struct {
	Bins  []int64
	Zeros int64
	Max   int
	Mean  float64
}

// InDegreeHistogram summarises the in-degree distribution.
func (g *Graph) InDegreeHistogram() DegreeHistogram {
	return histogram(g.InDegrees())
}

func histogram(deg []int) DegreeHistogram {
	h := DegreeHistogram{}
	var sum int64
	for _, d := range deg {
		sum += int64(d)
		if d == 0 {
			h.Zeros++
			continue
		}
		if d > h.Max {
			h.Max = d
		}
		bin := int(math.Log2(float64(d)))
		for len(h.Bins) <= bin {
			h.Bins = append(h.Bins, 0)
		}
		h.Bins[bin]++
	}
	if len(deg) > 0 {
		h.Mean = float64(sum) / float64(len(deg))
	}
	return h
}

// PowerLawish reports whether the distribution looks heavy-tailed: the
// max degree is at least `factor` times the mean. The R-MAT stand-ins for
// the paper's social/web graphs must satisfy this; ER stand-ins must not
// (with a large factor).
func (h DegreeHistogram) PowerLawish(factor float64) bool {
	return h.Mean > 0 && float64(h.Max) >= factor*h.Mean
}

// TopHubs returns the k nodes with the highest in-degree, descending —
// a quick structural fingerprint used in the dataset characterisation and
// handy for picking high-traffic query nodes in experiments.
func (g *Graph) TopHubs(k int) []int {
	type hub struct{ node, deg int }
	in := g.InDegrees()
	hubs := make([]hub, len(in))
	for i, d := range in {
		hubs[i] = hub{i, d}
	}
	sort.Slice(hubs, func(a, b int) bool {
		if hubs[a].deg != hubs[b].deg {
			return hubs[a].deg > hubs[b].deg
		}
		return hubs[a].node < hubs[b].node
	})
	if k > len(hubs) {
		k = len(hubs)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = hubs[i].node
	}
	return out
}
