package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"csrplus/internal/ingest"
)

// sample is one completed (or failed) operation.
type sample struct {
	idx      int           // index into the seeded stream
	due      time.Duration // open loop and writes: when it was due, since the phase began
	lat      time.Duration // open loop: completion - due time; closed loop: round trip
	rtt      time.Duration // send to completion
	at       time.Duration // completion, since the phase began
	lag      time.Duration // how late the generator itself sent: send - max(due, connection free)
	connWait time.Duration // how long the request waited for a free connection past its due time
	bytes    int           // response body length
	body     []byte        // kept only for sampled reads, for the reference check
	seq      uint64        // writes: the sequence number the server acknowledged
	err      error         // non-200, transport failure or timeout
}

// phase is the outcome of one load phase.
type phase struct {
	name    string
	samples []sample
	usage   []usage // closed loop: the servers' resources, usagePerWindow samples a window
}

// usage is what the server processes have consumed and hold at one instant.
type usage struct {
	cpu time.Duration
	rss int64
}

// window is the length of the intervals a closed-loop phase is cut into
// (see loadMetrics). The servers' resources are sampled usagePerWindow
// times a window: CPU is differenced across whole windows, and the resident
// set, a sawtooth between collections, needs the finer grid for its median.
const (
	window         = time.Second
	usagePerWindow = 10
)

func (p *phase) failed() int {
	n := 0
	for i := range p.samples {
		if p.samples[i].err != nil {
			n++
		}
	}
	return n
}

// clientTimeout bounds every operation; it is also the latency charged to
// a failed one, so a failure counts as missing any latency limit instead
// of dropping out of the percentiles.
const clientTimeout = 10 * time.Second

// latencies returns the phase's latencies in ms.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = ms(s.lat)
		if s.err != nil {
			out[i] = ms(clientTimeout)
		}
	}
	return out
}

// keepBody reports whether the j-th operation of a phase is checked
// against the reference: the first 100 and every 50th after.
func keepBody(j int) bool { return j < 100 || j%50 == 0 }

// newClient returns a client that owns exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// loader drives one front-end URL with the seeded read stream.
type loader struct {
	base    string
	clients []*http.Client
	req     func(i int) request
}

func (l *loader) get(c *http.Client, i int, keep bool) sample {
	s := sample{idx: i}
	resp, err := c.Get(l.base + l.req(i).path())
	if err != nil {
		s.err = err
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.bytes = len(body)
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	case keep:
		s.body = body
	}
	return s
}

// sleepUntil blocks until due has passed since start. It sleeps in the
// kernel rather than on a Go timer: the runtime rounds timer waits up to
// whole milliseconds, which would make the generator late by a tenth of the
// latency it measures; nanosleep is late by the kernel's 50 us timer slack.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		left := due - time.Since(start)
		if left <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(left))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

// open runs an open-loop phase: request first+j is due at sched[j] whatever
// the server is doing. A request that finds every connection busy waits in
// the generator and is still timed from its due time.
func (l *loader) open(name string, first int, sched []time.Duration) *phase {
	p := &phase{name: name, samples: make([]sample, len(sched))}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(sched) {
					return
				}
				due := sched[j]
				free := time.Since(start)
				sleepUntil(start, due)
				sent := time.Since(start)
				s := l.get(c, first+j, keepBody(j))
				done := time.Since(start)
				s.due, s.lat, s.rtt, s.at = due, done-due, done-sent, done
				s.lag = sent - max(due, free)
				s.connWait = max(0, free-due)
				p.samples[j] = s
			}
		}(c)
	}
	wg.Wait()
	return p
}

// closed runs a closed-loop phase: every client sends its next request the
// moment the previous one completes, until dur has passed. probe is read
// usagePerWindow times a window, the phase's start and end included.
func (l *loader) closed(name string, first int, dur time.Duration, probe func() (usage, error)) (*phase, error) {
	p := &phase{name: name}
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	var probeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		const step = window / usagePerWindow
		for i := 0; time.Duration(i)*step <= dur; i++ {
			sleepUntil(start, time.Duration(i)*step)
			u, err := probe()
			if err != nil {
				probeErr = err
				return
			}
			p.usage = append(p.usage, u)
		}
	}()
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var mine []sample
			for time.Since(start) < dur {
				j := int(next.Add(1)) - 1
				t0 := time.Now()
				s := l.get(c, first+j, keepBody(j))
				s.lat = time.Since(t0)
				s.at = time.Since(start)
				mine = append(mine, s)
			}
			mu.Lock()
			p.samples = append(p.samples, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return p, probeErr
}

// writer POSTs the seeded edge stream on its own connection and schedule.
type writer struct {
	url    string
	client *http.Client
	batch  func(i int) []ingest.Edge
}

func (w *writer) post(i int) sample {
	s := sample{idx: i}
	body, err := json.Marshal(map[string][]ingest.Edge{"edges": w.batch(i)})
	if err != nil {
		s.err = err
		return s
	}
	req, err := http.NewRequest(http.MethodPost, w.url+"/admin/edges", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	resp, err := w.client.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	msg, err := io.ReadAll(resp.Body) // to the end, so the connection is reused
	resp.Body.Close()
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, msg)
	default:
		s.err = json.Unmarshal(msg, &ack)
	}
	s.seq = ack.Seq
	return s
}

// run posts batch first+j at sched[j], timing every ack from its due time.
// It never abandons a batch in flight, so after it returns every batch is
// either acknowledged or failed — never in doubt.
func (w *writer) run(first int, sched []time.Duration) *phase {
	p := &phase{name: "write", samples: make([]sample, len(sched))}
	start := time.Now()
	for j, due := range sched {
		sleepUntil(start, due)
		s := w.post(first + j)
		s.due, s.lat = due, time.Since(start)-due
		p.samples[j] = s
	}
	return p
}
