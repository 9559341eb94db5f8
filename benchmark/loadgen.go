package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"ebsn/internal/rng"
)

// sample is one kept response: the request it answers and the body the
// server sent, for the oracle to check after the round.
type sample struct {
	req  *request
	body []byte
}

// passResult is what one pass of a round produced.
type passResult struct {
	opMs    []float64           // latency of each gated op, ms
	kindMs  [numKinds][]float64 // latency of every request by kind, ms
	wall    time.Duration
	reqs    int
	failed  int
	first   error // first transport or status failure
	samples []sample
}

func (p *passResult) merge(o *passResult) {
	p.opMs = append(p.opMs, o.opMs...)
	for k := range p.kindMs {
		p.kindMs[k] = append(p.kindMs[k], o.kindMs[k]...)
	}
	p.reqs += o.reqs
	p.failed += o.failed
	if p.first == nil {
		p.first = o.first
	}
	p.samples = append(p.samples, o.samples...)
}

// loadgen issues schedules against the servers of an env over loopback
// HTTP. All clients share one transport capped at `conns` keep-alive
// connections per server, so the generator never holds more sockets
// than the box has cores.
type loadgen struct {
	hc    *http.Client
	exact string   // base URL of the exact server
	quant string   // base URL of the Quantized server ("" when not started)
	spans *spanLog // non-nil while a traced round runs
}

func newLoadgen(exact, quant string, conns int) *loadgen {
	tr := &http.Transport{
		MaxIdleConns:        2 * conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &loadgen{hc: &http.Client{Transport: tr}, exact: exact, quant: quant}
}

func (g *loadgen) close() { g.hc.CloseIdleConnections() }

// base is the server a request of kind k goes to.
func (g *loadgen) base(k kind) string {
	if k == kQuantized {
		return g.quant
	}
	return g.exact
}

// do issues one request against the server at base and reads the whole
// response. buf is the caller's reusable read buffer; the returned slice
// aliases it.
func (g *loadgen) do(base string, r *request, buf *bytes.Buffer) ([]byte, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method(), base+r.path, body)
	if err != nil {
		return nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", r.method(), r.path, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// runOps issues ops back to back on the calling goroutine and records
// their latencies into res.
func (g *loadgen) runOps(ops []op, res *passResult) {
	var buf bytes.Buffer
	start := time.Now()
	for i := range ops {
		o := &ops[i]
		opStart := time.Now()
		ok := true
		for j := range o.reqs {
			r := &o.reqs[j]
			t0 := time.Now()
			body, err := g.do(g.base(r.kind), r, &buf)
			t1 := time.Now()
			res.reqs++
			if err != nil {
				res.failed++
				if res.first == nil {
					res.first = err
				}
				ok = false
				continue
			}
			res.kindMs[r.kind] = append(res.kindMs[r.kind], ms(t1.Sub(t0)))
			if g.spans != nil {
				g.spans.add("http.roundtrip/"+r.kind.String(), t0, t1, -1, -1)
			}
			if r.check {
				res.samples = append(res.samples, sample{req: r, body: append([]byte(nil), body...)})
			}
		}
		if o.gated && ok {
			res.opMs = append(res.opMs, ms(time.Since(opStart)))
		}
	}
	res.wall = time.Since(start)
}

// runRound executes one round: the single pass, then the closed pass
// with one goroutine per client, each timed as a whole.
func (g *loadgen) runRound(rd *round) (single, closed *passResult) {
	single = &passResult{}
	g.runOps(rd.single, single)
	if len(rd.closed) == 0 {
		return single, nil
	}
	parts := make([]passResult, len(rd.closed))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range rd.closed {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g.runOps(rd.closed[c], &parts[c])
		}(c)
	}
	wg.Wait()
	closed = &passResult{wall: time.Since(start)}
	for c := range parts {
		closed.merge(&parts[c])
	}
	return single, closed
}

// openLoop fires the gated ops of `ops` as Poisson arrivals at `rate`
// ops per second, each timed from the moment it was due, not from when
// a connection was free — so a stall delays every later op as it would
// delay independent users. It reports the latency from due time and how
// late the generator itself ran (send time minus due time).
func (g *loadgen) openLoop(ops []op, rate float64, conns int, src *rng.Source) (latencyMs, lateMs []float64, failed int, first error) {
	type job struct {
		o   *op
		due time.Time
	}
	jobs := make(chan job, len(ops)) // sized to the sends: the dispatcher never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				sent := time.Now()
				var err error
				for i := range j.o.reqs {
					if _, e := g.do(g.base(j.o.reqs[i].kind), &j.o.reqs[i], &buf); e != nil {
						err = e
					}
				}
				done := time.Now()
				mu.Lock()
				if err == nil {
					latencyMs = append(latencyMs, ms(done.Sub(j.due)))
					lateMs = append(lateMs, ms(sent.Sub(j.due)))
				} else {
					failed++
					if first == nil {
						first = err
					}
				}
				mu.Unlock()
			}
		}()
	}
	due := time.Now()
	for i := range ops {
		if !ops[i].gated {
			continue
		}
		due = due.Add(time.Duration(-math.Log(1-src.Float64()) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{&ops[i], due}
	}
	close(jobs)
	wg.Wait()
	return latencyMs, lateMs, failed, first
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
