package ta

import (
	"fmt"
	"sort"

	"ebsn/internal/par"
	"ebsn/internal/vecmath"
)

// Candidate is one event-partner pair in the transformed space.
type Candidate struct {
	Event   int32 // index into the event vector set
	Partner int32 // index into the partner vector set
}

// CandidateSet holds the materialized transformed space: every candidate
// pair (x, u') mapped to the (2K+1)-dimensional point p = (x, u', x·u').
// Points are not stored explicitly — the first K coordinates depend only
// on the event and the next K only on the partner, so the set stores the
// original vectors plus the pair list and the precomputed cross term.
//
// The vectors have a second representation: Pack copies them into
// contiguous row-major backing arrays and re-aliases every Events[i] /
// Partners[u] row into them, so the per-query affinity passes stream
// sequential memory (vecmath.DotBatch) instead of chasing one pointer
// per row. The index constructors pack automatically; a set mutated
// afterwards is re-packed on the next
// index build.
type CandidateSet struct {
	K        int
	Events   [][]float32 // event vectors (index space of Candidate.Event)
	Partners [][]float32 // partner/user vectors
	Pairs    []Candidate
	Cross    []float32 // x·u' per pair — the (2K+1)-th coordinate

	// Packed row-major mirrors of Events/Partners (see Pack). Queries
	// require them; index constructors guarantee they are current.
	eventData   []float32
	partnerData []float32

	// owner pins the artifact a set was decoded from (see artifact.go):
	// its packed storage aliases the artifact's pages, so a mapped set
	// kept alive by a delta or a folded engine keeps its pages mapped
	// even after every other reference to the artifact is gone. Pack
	// leaves such storage untouched, since the rows already alias it.
	owner *Artifact
}

// Pack (re)builds the contiguous row-major backing arrays and re-aliases
// the per-row slices into them. Idempotent and cheap when already packed;
// not safe to call concurrently with queries (index constructors call it
// at build time, which the facade serializes as its contract requires).
func (c *CandidateSet) Pack() {
	c.eventData = packRows(c.Events, c.K, c.eventData)
	c.partnerData = packRows(c.Partners, c.K, c.partnerData)
}

// packRows copies rows into one contiguous buffer and re-aliases each
// row into it, returning the buffer. A prev buffer that already backs
// the rows is reused untouched.
func packRows(rows [][]float32, k int, prev []float32) []float32 {
	if len(prev) == len(rows)*k && (len(rows) == 0 || &rows[0][0] == &prev[0]) {
		return prev
	}
	data := make([]float32, len(rows)*k)
	for i, r := range rows {
		copy(data[i*k:(i+1)*k], r)
	}
	for i := range rows {
		rows[i] = data[i*k : (i+1)*k : (i+1)*k]
	}
	return data
}

// PackQuantized is Pack. It remains only because the benchmark harness
// names it (ROADMAP 1e).
func (c *CandidateSet) PackQuantized() { c.Pack() }

// Dims returns the transformed-space dimensionality 2K+1.
func (c *CandidateSet) Dims() int { return 2*c.K + 1 }

// The two sides of the space, as side's argument.
const (
	eventSide   = false
	partnerSide = true
)

// side returns one side of the space: its row count and packed rows.
func (c *CandidateSet) side(partners bool) (rows int, data []float32) {
	if partners {
		return len(c.Partners), c.partnerData
	}
	return len(c.Events), c.eventData
}

// Point materializes the transformed point of pair i (mostly for tests).
func (c *CandidateSet) Point(i int) []float32 {
	p := make([]float32, c.Dims())
	pair := c.Pairs[i]
	copy(p[:c.K], c.Events[pair.Event])
	copy(p[c.K:2*c.K], c.Partners[pair.Partner])
	p[2*c.K] = c.Cross[i]
	return p
}

// QueryPoint materializes the transformed query point q_u = (u, u, 1).
func QueryPoint(userVec []float32) []float32 {
	k := len(userVec)
	q := make([]float32, 2*k+1)
	copy(q[:k], userVec)
	copy(q[k:2*k], userVec)
	q[2*k] = 1
	return q
}

// Score computes the pair's joint score for the given user vector using
// the untransformed identity u·x + u'·x + u·u', summed as (u·x + u·u') +
// cross — the order the walk and the delta use, so every path and
// BruteForceTopN agree bit for bit. By construction it
// equals the transformed inner product q_u·p up to rounding (verified by
// property test). After Pack the row slices alias the contiguous backing
// arrays, so this reads packed memory.
func (c *CandidateSet) Score(userVec []float32, i int) float32 {
	pair := c.Pairs[i]
	return vecmath.Dot(userVec, c.Events[pair.Event]) + vecmath.Dot(userVec, c.Partners[pair.Partner]) + c.Cross[i]
}

// BuildConfig controls candidate-set construction.
type BuildConfig struct {
	// TopKEvents keeps only each partner's k highest-scoring events
	// (their own preference u'·x). Zero keeps the full cross product —
	// the paper's unpruned space.
	TopKEvents int
	// Workers bounds build parallelism (0 = serial).
	Workers int
}

// BuildCandidates constructs the transformed candidate space over the
// given event and partner vectors. With pruning enabled, each partner
// contributes only their top-k events, reducing the space from |U|·|X| to
// |U|·k exactly as Section IV proposes: a partner is unlikely to accept
// an invitation to an event they have no interest in.
//
// Every partner contributes exactly min(TopKEvents, |X|) pairs, so the
// pair array is sized up front and filled fully in parallel — including
// the cross terms, which reuse the u'·x scores the pruning pass already
// computed instead of re-deriving them with a second dot product per
// pair. The input vectors are packed (see Pack) as a side effect.
func BuildCandidates(events, partners [][]float32, cfg BuildConfig) (*CandidateSet, error) {
	if len(events) == 0 || len(partners) == 0 {
		return nil, fmt.Errorf("ta: empty event or partner set")
	}
	k := len(events[0])
	for _, v := range events {
		if len(v) != k {
			return nil, fmt.Errorf("ta: inconsistent event vector lengths")
		}
	}
	for _, v := range partners {
		if len(v) != k {
			return nil, fmt.Errorf("ta: partner vector length %d, want %d", len(v), k)
		}
	}
	cs := &CandidateSet{K: k, Events: events, Partners: partners}
	cs.Pack()

	topK := cfg.TopKEvents
	if topK <= 0 || topK > len(events) {
		topK = len(events)
	}
	per := topK
	cs.Pairs = make([]Candidate, per*len(partners))
	cs.Cross = make([]float32, per*len(partners))

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	par.Chunks(len(partners), workers, func(lo, hi int) {
		scores := make([]float32, len(events))
		heap := make([]eventScore, 0, per)
		ids := make([]int32, per)
		for u := lo; u < hi; u++ {
			vecmath.DotBatch(cs.Partners[u], cs.eventData, k, scores)
			sel := selectTopEvents(scores, per, heap, ids)
			base := u * per
			for j, x := range sel {
				cs.Pairs[base+j] = Candidate{Event: x, Partner: int32(u)}
				cs.Cross[base+j] = scores[x]
			}
		}
	})
	return cs, nil
}

// eventScore is one entry of the pruning pass's top-k min-heap.
type eventScore struct {
	x int32
	s float32
}

// selectTopEvents returns the indices of the top-k events by score,
// sorted by event index for deterministic output. Ties keep the earliest
// events, matching the historical behavior (a later event only displaces
// the heap minimum on a strictly greater score). h and out are caller
// scratch; the result aliases out.
func selectTopEvents(scores []float32, k int, h []eventScore, out []int32) []int32 {
	if k >= len(scores) {
		out = out[:len(scores)]
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	h = h[:0]
	for x, s := range scores {
		if len(h) < k {
			// Sift up.
			h = append(h, eventScore{int32(x), s})
			i := len(h) - 1
			for i > 0 {
				p := (i - 1) / 2
				if h[i].s >= h[p].s {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		} else if s > h[0].s {
			// Replace the minimum and sift down.
			h[0] = eventScore{int32(x), s}
			i := 0
			for {
				l, r := 2*i+1, 2*i+2
				m := i
				if l < len(h) && h[l].s < h[m].s {
					m = l
				}
				if r < len(h) && h[r].s < h[m].s {
					m = r
				}
				if m == i {
					break
				}
				h[i], h[m] = h[m], h[i]
				i = m
			}
		}
	}
	out = out[:len(h)]
	for i, e := range h {
		out[i] = e.x
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Result is one recommended event-partner pair with its score.
type Result struct {
	Event   int32
	Partner int32
	Score   float32
}

// Outranks reports whether r precedes o in the canonical result order:
// higher score first, score ties broken by ascending partner then
// ascending event. The tie-break makes top-n selection a total order, so
// the exact answer no longer depends on traversal order — the property
// the sharded engine's heap-merge relies on: the canonical global top-n
// is always contained in the union of canonical per-shard top-n's
// (see internal/engine).
func (r Result) Outranks(o Result) bool {
	if r.Score != o.Score {
		return r.Score > o.Score
	}
	if r.Partner != o.Partner {
		return r.Partner < o.Partner
	}
	return r.Event < o.Event
}

// BruteForceTopN scores every candidate (GEM-BF) and returns the top n in
// the canonical order (score descending, ties by partner then event).
func (c *CandidateSet) BruteForceTopN(userVec []float32, n int) []Result {
	if n <= 0 {
		return nil
	}
	var h resultHeap
	for i := range c.Pairs {
		r := Result{c.Pairs[i].Event, c.Pairs[i].Partner, c.Score(userVec, i)}
		if len(h) < n {
			h.push(r)
		} else if r.Outranks(h[0]) {
			h.replaceMin(r)
		}
	}
	return h.drainDescending(nil)
}

// resultHeap is a min-heap in the canonical order (Result.Outranks), so
// the root is the weakest retained result. The heap is hand-rolled (no
// container/heap) so pushes take no interface boxing allocation — it
// sits on the query hot path.
type resultHeap []Result

// push adds r, sifting up.
func (h *resultHeap) push(r Result) {
	*h = append(*h, r)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[p].Outranks(s[i]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// replaceMin overwrites the root with r and sifts down.
func (h resultHeap) replaceMin(r Result) {
	h[0] = r
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[m].Outranks(h[l]) {
			m = l
		}
		if rr < len(h) && h[m].Outranks(h[rr]) {
			m = rr
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// drainDescending empties the heap into dst (reused when its capacity
// suffices, so pooled callers stay allocation-free) in descending score
// order.
func (h *resultHeap) drainDescending(dst []Result) []Result {
	n := len(*h)
	if cap(dst) < n {
		dst = make([]Result, n)
	}
	dst = dst[:n]
	s := *h
	for i := n - 1; i >= 0; i-- {
		dst[i] = s[0]
		last := len(s) - 1
		s[0] = s[last]
		s = s[:last]
		if last > 0 {
			s.replaceMin(s[0])
		}
	}
	*h = (*h)[:0]
	return dst
}
