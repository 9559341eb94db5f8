package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"ebsn"
	"ebsn/internal/obs"
)

// coalescer is the micro-batching admission layer for single-user
// partner queries: cache-missing GET /v1/partners requests park here for
// up to one window (Config.CoalesceWindow) and are dispatched as one
// engine batch — one index traversal instead of one per request. The
// arrival that fills the batch to Config.CoalesceBatch dispatches early
// without waiting out the window.
//
// Batched answers are bit-identical to sequential ones, so coalescing is
// invisible to clients beyond the (bounded) added latency. Requests with
// different n coalesce too: the batch runs at the largest n and each
// request takes its prefix, which the canonical result order makes exact.
type coalescer struct {
	s      *Server
	window time.Duration
	maxB   int

	mu  sync.Mutex
	cur *pendingBatch
}

// pendingBatch is one open coalescing window. The timer fires the batch
// when the window closes unless a cap-filling arrival dispatched it
// first; both paths race through fire/join under the coalescer's mutex,
// and whichever detaches the batch from cur runs it.
type pendingBatch struct {
	units []coalesceUnit
	timer *time.Timer
}

// coalesceUnit is one parked request. done is buffered so the
// dispatching goroutine never blocks on a waiter.
type coalesceUnit struct {
	user int32
	n    int
	done chan coalesceOut
}

// coalesceOut is one request's share of a dispatched batch.
type coalesceOut struct {
	status int
	resp   *RankingResponse
	errMsg string
	stats  ebsn.SearchStats
	shards int
	batch  int // users in the dispatch that answered this request
}

// join parks one request in the current window (opening one if none is
// open) and blocks until its batch is dispatched. The arrival that fills
// the batch to the cap becomes the dispatch leader, running the engine
// batch on its own goroutine; otherwise the window timer dispatches.
func (c *coalescer) join(user int32, n int) coalesceOut {
	u := coalesceUnit{user: user, n: n, done: make(chan coalesceOut, 1)}
	c.mu.Lock()
	b := c.cur
	if b == nil {
		b = &pendingBatch{}
		c.cur = b
		b.timer = time.AfterFunc(c.window, func() { c.fire(b) })
	}
	b.units = append(b.units, u)
	if len(b.units) >= c.maxB {
		c.cur = nil
		units := b.units
		b.timer.Stop()
		c.mu.Unlock()
		c.dispatch(units)
	} else {
		c.mu.Unlock()
	}
	return <-u.done
}

// fire is the window-timer path: dispatch the batch unless a cap arrival
// already detached it.
func (c *coalescer) fire(b *pendingBatch) {
	c.mu.Lock()
	if c.cur != b {
		c.mu.Unlock()
		return // dispatched at the cap before the window closed
	}
	c.cur = nil
	units := b.units
	c.mu.Unlock()
	c.dispatch(units)
}

// dispatch answers every unit of one detached batch. A panic in the
// engine path is converted into 500s for the whole batch rather than
// crashing the process — the timer goroutine has no recovery middleware
// above it.
func (c *coalescer) dispatch(units []coalesceUnit) {
	outs := make([]coalesceOut, len(units))
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.s.metrics.RecordPanic()
				for i := range outs {
					outs[i] = coalesceOut{status: http.StatusInternalServerError, errMsg: fmt.Sprintf("batch dispatch panic: %v", r)}
				}
			}
		}()
		c.run(units, outs)
	}()
	for i := range units {
		units[i].done <- outs[i]
	}
}

// run executes one engine batch under the model read lock and encodes
// each unit's slice of the results. Waiters hold no locks, so the read
// lock here cannot deadlock against a queued writer.
func (c *coalescer) run(units []coalesceUnit, outs []coalesceOut) {
	s := c.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec := s.rec
	nu := rec.Dataset().NumUsers

	// Users were validated at parse time, but a reload may have swapped
	// in a model with a different user space while the request was
	// parked; answer such strays individually instead of failing the
	// whole batch.
	idx := make([]int, 0, len(units))
	users := make([]int32, 0, len(units))
	nmax := 0
	for i, u := range units {
		if int(u.user) < 0 || int(u.user) >= nu {
			outs[i] = coalesceOut{status: http.StatusBadRequest,
				errMsg: fmt.Sprintf("user %d out of range after model reload (0 ≤ user < %d)", u.user, nu)}
			continue
		}
		idx = append(idx, i)
		users = append(users, u.user)
		if u.n > nmax {
			nmax = u.n
		}
	}
	if len(users) == 0 {
		return
	}
	batch, es, err := rec.Recommend(users, nmax, ebsn.Constraint{})
	if err != nil {
		for _, i := range idx {
			outs[i] = coalesceOut{status: http.StatusInternalServerError, errMsg: err.Error()}
		}
		return
	}
	s.recordJoint(nil, es)
	s.metrics.RecordCoalesced(len(users))
	d := rec.Dataset()
	for k, i := range idx {
		u := units[i]
		outs[i] = coalesceOut{
			status: http.StatusOK, resp: encodePairs(d, u.user, u.n, batch[k]),
			stats: es.Agg, shards: len(es.Shards), batch: len(users),
		}
	}
}

// answerCoalesced is the compute stage of GET /v1/partners when
// coalescing is on: park in the coalescer holding no lock, then encode
// this request's share of the batch on its own goroutine — outside the
// dispatcher's read lock — and seed the response cache with it so
// identical followers hit without coalescing at all.
func (s *Server) answerCoalesced(w http.ResponseWriter, q *getQuery, sp *obs.Span) {
	sp.Stage("coalesce")
	out := s.coalesce.join(int32(q.user), q.n)
	sp.SetAttr("batch", int64(out.batch))
	sp.SetAttr("ta_candidates", int64(out.stats.Candidates))
	sp.SetAttr("shards", int64(out.shards))
	if out.status != http.StatusOK {
		writeError(w, out.status, out.errMsg)
		return
	}
	s.writeCached(w, q.key, out.resp)
}
