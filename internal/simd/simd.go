// Package simd decides, once per process, which tier of register tiles the
// dense and sparse kernels run: the pure-Go tiles, the 2-lane SSE2 tiles or
// the 4-lane AVX2 tiles. Every tier computes the same bits — each vector
// lane is one output column whose accumulator sums its products in
// ascending k with a separate multiply and add — so the choice changes how
// fast Phase I runs, never what it publishes.
package simd

// Tier is a kernel tier; a higher tier runs wider lanes.
type Tier uint8

const (
	// Go is the pure-Go register tiles: every build, and the only tier off
	// amd64.
	Go Tier = iota
	// SSE2 is the 2-lane XMM tiles: every amd64 CPU (SSE2 is the amd64
	// baseline).
	SSE2
	// AVX2 is the 4-lane YMM tiles: amd64 CPUs with AVX2 whose operating
	// system saves YMM state.
	AVX2
)

// String is the tier's name as the server reports it: go, sse2 or avx2.
func (t Tier) String() string {
	switch t {
	case Go:
		return "go"
	case SSE2:
		return "sse2"
	case AVX2:
		return "avx2"
	}
	return "unknown"
}

// best is the CPU check's verdict, made once at start-up.
var best = detect()

// Detected is the highest tier this build can run on this CPU.
func Detected() Tier { return best }

// Tiers lists every tier this build can run on this CPU, lowest first: the
// tiers a differential suite holds to the same references.
func Tiers() []Tier {
	ts := make([]Tier, 0, best+1)
	for t := Go; t <= best; t++ {
		ts = append(ts, t)
	}
	return ts
}
