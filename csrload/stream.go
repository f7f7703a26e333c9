package main

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"

	"csrplus/internal/ingest"
)

// Stream ids keep the read, arrival and edge streams of one seed
// independent: changing a workload's rate never changes which nodes it
// asks for.
const (
	streamReads uint64 = iota + 1
	streamArrivals
	streamEdges
	streamWriteArrivals
)

// edgesPerBatch is the size of every POST /admin/edges batch.
const edgesPerBatch = 16

// rng is splitmix64. Every stream element is a pure function of
// (seed, stream, index), so the generator never has to decide up front how
// many requests a closed-loop phase will consume.
type rng struct{ s uint64 }

func newRNG(seed int64, stream, index uint64) rng {
	r := rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ index*0x94d049bb133111eb}
	r.next() // decorrelate neighbouring indexes
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n) by multiply-shift; the bias is
// below 2^-40 for every n this benchmark uses.
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// float returns a uniform value in (0, 1].
func (r *rng) float() float64 {
	return float64(r.next()>>11+1) / (1 << 53)
}

// request is one /topk call.
type request struct {
	nodes []int
	k     int
}

// readRequest is element i of the seeded read stream: q distinct nodes
// drawn uniformly from [0, n).
func readRequest(seed int64, n, q, k, i int) request {
	r := newRNG(seed, streamReads, uint64(i))
	nodes := make([]int, 0, q)
draw:
	for len(nodes) < q {
		v := r.intn(n)
		for _, have := range nodes {
			if have == v {
				continue draw
			}
		}
		nodes = append(nodes, v)
	}
	return request{nodes: nodes, k: k}
}

// path renders the request as csrserver's query string.
func (r request) path() string {
	var b strings.Builder
	if len(r.nodes) == 1 {
		b.WriteString("/topk?node=")
	} else {
		b.WriteString("/topk?nodes=")
	}
	for i, v := range r.nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteString("&k=")
	b.WriteString(strconv.Itoa(r.k))
	return b.String()
}

// edgeBatch is element i of the seeded write stream.
func edgeBatch(seed int64, n, i int) []ingest.Edge {
	r := newRNG(seed, streamEdges, uint64(i))
	edges := make([]ingest.Edge, edgesPerBatch)
	for j := range edges {
		edges[j] = ingest.Edge{Src: r.intn(n), Dst: r.intn(n)}
	}
	return edges
}

// arrivals returns the due times, as offsets from the start of a phase, of
// a Poisson process of the given rate over dur. phase separates the
// warm-up's schedule from the measured one.
func arrivals(seed int64, stream, phase uint64, rate float64, dur time.Duration) []time.Duration {
	r := newRNG(seed, stream, phase)
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(r.float()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, due)
	}
}
