package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"csrplus"
)

// reference answers requests in-process from the snapshot the server
// published, through the library's own Engine.TopK/TopKMulti. The repo's
// equivalence suites prove every serving topology bitwise-equal to it, so
// a sampled response must match node for node and bit for bit.
type reference struct {
	eng *csrplus.Engine
}

func (r *reference) answer(req request) ([]csrplus.Match, error) {
	if len(req.nodes) == 1 {
		return r.eng.TopK(req.nodes[0], req.k)
	}
	return r.eng.TopKMulti(req.nodes, req.k)
}

// verify checks one /topk response body against the reference.
func (r *reference) verify(req request, body []byte) error {
	var got struct {
		Matches  []csrplus.Match `json:"matches"`
		Degraded json.RawMessage `json:"degraded"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if got.Degraded != nil {
		return fmt.Errorf("degraded answer: %s", got.Degraded)
	}
	want, err := r.answer(req)
	if err != nil {
		return err
	}
	if len(got.Matches) != len(want) {
		return fmt.Errorf("%d matches, reference has %d", len(got.Matches), len(want))
	}
	for i, w := range want {
		g := got.Matches[i]
		if g.Node != w.Node || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("match %d is (%d, %v), reference has (%d, %v)", i, g.Node, g.Score, w.Node, w.Score)
		}
	}
	return nil
}

// verifyPhase checks every kept body of p, marks mismatches as failed
// operations, and returns how many bodies it checked. The reference answers
// cost as much as the server's, so they are computed on every core.
func (r *reference) verifyPhase(p *phase, req func(i int) request) int {
	var kept []*sample
	for i := range p.samples {
		if p.samples[i].body != nil {
			kept = append(kept, &p.samples[i])
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(kept) {
					return
				}
				s := kept[i]
				if err := r.verify(req(s.idx), s.body); err != nil {
					s.err = fmt.Errorf("request %d (%s): %w", s.idx, req(s.idx).path(), err)
				}
				s.body = nil
			}
		}()
	}
	wg.Wait()
	return len(kept)
}
