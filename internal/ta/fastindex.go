package ta

import (
	"math"
	"time"

	"ebsn/internal/par"
)

// FastIndex is the production top-n engine for the transformed space.
// The literal Fagin TA (internal/experiments/fagin) treats the 2K+1
// coordinates as opaque sorted lists, which on dense signed embeddings
// degenerates (fat-tailed spectra keep the threshold high; see
// EXPERIMENTS.md). FastIndex instead exploits the product structure the
// transformation creates:
//
//	score(u; x, u') = u·x + u·u' + x·u' = a(x) + b(u') + cross(x, u')
//
// a and b are computed once per query in (|X|+|U|)·K flops — streamed
// over the set's packed row-major storage as one lane of a
// vecmath.DotPanel pass (TopNBatch), which for a single query is
// DotBatch's SSE2 one-query kernel on amd64 (120–160 µs for the
// 600 + 11 890 rows of bench-12k at K = 60 on a 2-vCPU Xeon); cross is
// precomputed per pair at build time. Candidates are grouped by
// partner, each partner u' carries the offline bound maxCross(u') over
// its own candidate events, and the query consumes partners in
// decreasing
//
//	bound(u') = b(u') + max_x a(x) + maxCross(u')
//
// order — an upper bound on every one of u's pairs — stopping as soon as
// the next bound cannot beat the n-th best exact score. The decreasing
// order comes from a blocked tournament over the bounds (boundQueue): one
// linear pass fills them and records each 64-partner block's best, and
// each pop rescans one block and sifts a heap of block bests, so a query
// pays for the partners it consumes, not for ordering all |U|. On the
// benchmark city (11 890 partners) the stop fires after 7.8 pops on
// average, with p99 ≤ 45 across the unconstrained and constrained
// walks. This is the threshold-algorithm contract of Fagin's TA (sorted
// access by bound, cheap random access, early termination, exact
// results), specialized to the pair structure. Even a full scan costs
// one addition per pair instead of one K-dim dot product, so it
// lower-bounds brute force by a factor ~K; the threshold stop then
// prunes on top of that.
type FastIndex struct {
	set *CandidateSet
	// order holds pair indices grouped by partner via a counting sort;
	// partnerStart[u] .. partnerStart[u+1] delimit partner u's pairs
	// within it. The indirection makes the index independent of the
	// set's pair ordering (FoldDelta appends out of order).
	order        []int32
	partnerStart []int32
	// maxCross[u] is max over u's candidate pairs of the cross term, and
	// −Inf (the max over an empty set) for a partner with no pairs, so
	// that partner's bound is −Inf and the walk never pops it.
	maxCross []float32
}

// NewFastIndex builds the per-partner grouping and offline bounds using
// all available CPUs. See NewFastIndexWorkers.
func NewFastIndex(set *CandidateSet) *FastIndex { return NewFastIndexWorkers(set, 0) }

// NewFastIndexWorkers builds the per-partner grouping and offline bounds
// with the given parallelism (≤ 0 means GOMAXPROCS). The build is a
// parallel counting sort: per-chunk partner counts, a prefix pass that
// assigns every (chunk, partner) block its slot range, then fully
// parallel placement — each chunk writes disjoint slots, and a partner's
// pairs land in original order regardless of the worker count, so the
// output is identical to the serial build. Packs the set as a side
// effect.
func NewFastIndexWorkers(set *CandidateSet, workers int) *FastIndex {
	workers = par.Workers(workers)
	set.Pack()
	nu := len(set.Partners)
	np := len(set.Pairs)
	f := &FastIndex{
		set:          set,
		order:        make([]int32, np),
		partnerStart: make([]int32, nu+1),
		maxCross:     make([]float32, nu),
	}

	// Chunk the pair list. Each chunk counts its pairs per partner.
	nchunks := workers
	if nchunks > np {
		nchunks = np
	}
	if nchunks < 1 {
		nchunks = 1
	}
	chunk := (np + nchunks - 1) / nchunks
	counts := make([][]int32, 0, nchunks)
	for lo := 0; lo < np; lo += chunk {
		counts = append(counts, make([]int32, nu))
	}
	par.For(len(counts), workers, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > np {
			hi = np
		}
		cnt := counts[c]
		for _, p := range set.Pairs[lo:hi] {
			cnt[p.Partner]++
		}
	})

	// Prefix pass: partnerStart from the per-partner totals, then turn
	// each chunk's count into its starting slot for that partner.
	var run int32
	for u := 0; u < nu; u++ {
		f.partnerStart[u] = run
		for _, cnt := range counts {
			n := cnt[u]
			cnt[u] = run
			run += n
		}
	}
	f.partnerStart[nu] = run

	// Placement: each chunk fills its own slots.
	par.For(len(counts), workers, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > np {
			hi = np
		}
		cur := counts[c]
		for i := lo; i < hi; i++ {
			u := set.Pairs[i].Partner
			f.order[cur[u]] = int32(i)
			cur[u]++
		}
	})

	// Offline per-partner cross-term bounds.
	par.Chunks(nu, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			s, e := f.partnerStart[u], f.partnerStart[u+1]
			if s == e {
				f.maxCross[u] = negInf
				continue
			}
			best := set.Cross[f.order[s]]
			for i := s + 1; i < e; i++ {
				if c := set.Cross[f.order[i]]; c > best {
					best = c
				}
			}
			f.maxCross[u] = best
		}
	})
	return f
}

// lane answers one query as a one-lane TopNBatch. Its user row and
// exclude are loaded into sc, so a warm call allocates nothing; the
// results alias sc.
func (f *FastIndex) lane(userVec []float32, n int, exclude int32, pred EventPredicate, sc *Scratch) ([]Result, SearchStats) {
	sc.user[0], sc.excl[0] = userVec, exclude
	res, stats := f.TopNBatch(BatchQuery{Users: sc.user[:], N: n, Exclude: sc.excl[:], Pred: pred}, sc)
	sc.user[0] = nil
	return res[0], stats[0]
}

// TopNExcludingScratch is the unconstrained lane. It and the two names
// below remain only because the benchmark harness names them (ROADMAP
// 1e); new callers run TopNBatch.
func (f *FastIndex) TopNExcludingScratch(userVec []float32, n int, exclude int32, sc *Scratch) ([]Result, SearchStats) {
	return f.lane(userVec, n, exclude, nil, sc)
}

// TopNExcludingPredScratch is the lane under a predicate.
func (f *FastIndex) TopNExcludingPredScratch(userVec []float32, n int, exclude int32, pred EventPredicate, sc *Scratch) ([]Result, SearchStats) {
	return f.lane(userVec, n, exclude, pred, sc)
}

// TopNExcludingQuantizedScratch is TopNExcludingScratch: every query is
// exact. It remains only because the benchmark harness names it
// (ROADMAP 1e).
func (f *FastIndex) TopNExcludingQuantizedScratch(userVec []float32, n int, exclude int32, sc *Scratch) ([]Result, SearchStats) {
	return f.TopNExcludingScratch(userVec, n, exclude, sc)
}

// SearchStats reports how much work one query did — the instrument
// behind the paper's observation that top-10 queries touch only ~8% of
// the candidate pairs.
type SearchStats struct {
	// SortedAccesses counts the partner bounds the walk popped.
	SortedAccesses int
	// RandomAccesses counts the pairs whose score was materialized.
	RandomAccesses int
	// Candidates is the total pair count, for fractions.
	Candidates int
	// Elapsed is the wall-clock time the query spent inside the index,
	// excluding scratch acquisition. Reading the monotonic clock twice
	// costs ~50ns against a ~200µs bench-12k query, so it is always on.
	Elapsed time.Duration
}

// AccessFraction is the fraction of candidate pairs score-evaluated.
func (s SearchStats) AccessFraction() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.RandomAccesses) / float64(s.Candidates)
}

// walk runs the threshold walk over precomputed affinities — a[x] per
// event, b[u] per partner — and drains the top n into dst in canonical
// order; stats accumulates the access counts. It is the core of every
// TopNBatch lane: DotPanel gives every lane the accumulation order of a
// lone DotBatch, so a lane's results do not depend on the batch width,
// bit for bit, ties included.
//
// pred, when non-nil, is pushed into the walk: amax ranges over allowed
// events only — so every partner bound is at most its unconstrained
// value and the stop fires no later than it would with the slack bound —
// and disallowed pairs are skipped without materializing a score.
func (f *FastIndex) walk(a, b []float32, n int, exclude int32, pred EventPredicate, sc *Scratch, stats *SearchStats, dst []Result) []Result {
	set := f.set
	h := &sc.results
	*h = (*h)[:0]
	var amax float32
	allowed := false
	for x, v := range a {
		if (pred == nil || pred[x]) && (!allowed || v > amax) {
			amax, allowed = v, true
		}
	}
	if !allowed {
		return h.drainDescending(dst) // predicate allows no events
	}

	q := &sc.queue
	q.fill(b, amax, f.maxCross)
	for {
		top := q.top()
		if top.bound == negInf {
			break // every partner with pairs has been popped
		}
		// Strictly greater, not ≥: a remaining pair whose score exactly
		// equals both the bound and the weakest retained score could still
		// outrank it on the canonical tie-break (smaller partner/event), so
		// equality keeps scanning. Exact equality needs a pair to attain
		// amax and maxCross simultaneously — rare enough that the extra
		// partner scans are noise, and exactness under ties is what the
		// sharded engine's merge depends on.
		if len(*h) == n && (*h)[0].Score > top.bound {
			break // no remaining partner can beat the current top n
		}
		u := q.pop().u
		stats.SortedAccesses++
		if u == exclude {
			continue
		}
		bu := b[u]
		for oi := f.partnerStart[u]; oi < f.partnerStart[u+1]; oi++ {
			i := f.order[oi]
			x := set.Pairs[i].Event
			if pred != nil && !pred[x] {
				continue // filtered before scoring: no random access
			}
			stats.RandomAccesses++
			r := Result{x, u, a[x] + bu + set.Cross[i]}
			if len(*h) < n {
				h.push(r)
			} else if r.Outranks((*h)[0]) {
				h.replaceMin(r)
			}
		}
	}
	return h.drainDescending(dst)
}

// negInf is the bound of a partner with no pairs and of a popped one.
var negInf = float32(math.Inf(-1))

// boundBlock is the number of consecutive partners a boundQueue block
// covers: one pop rescans one block, and the block heap has ⌈|U|/64⌉
// entries (186 at 11 890 partners).
const boundBlock = 64

// boundEntry is one partner's score bound; in a boundQueue's heap it is
// a block's best, the largest remaining bound in the block and the first
// partner holding it.
type boundEntry struct {
	bound float32
	u     int32
}

// before is the canonical pop order: bound descending, then partner
// ascending. It is total, so the pop sequence does not depend on how the
// heap arranges equal bounds.
func (p boundEntry) before(o boundEntry) bool {
	return p.bound > o.bound || (p.bound == o.bound && p.u < o.u)
}

// boundQueue hands out the partner bounds of one walk in canonical order
// as a blocked tournament: the bounds sit in partner order, split into
// blocks of boundBlock, and a max-heap holds each block's best. A pop
// marks the root's partner −Inf, rescans its block for the new best and
// sifts the root down, so the fill is one linear pass and a pop costs a
// 64-wide scan plus log₂ of the block count. That is cheaper than a
// heap over all |U| bounds until a walk pops several thousand partners;
// the threshold stop fires long before that (see FastIndex).
type boundQueue struct {
	bounds []float32    // per partner; −Inf once popped
	heap   []boundEntry // per-block bests, max-heap in canonical order
}

// fill loads the bounds b[u] + amax + maxCross[u] for every partner and
// builds the block heap.
func (q *boundQueue) fill(b []float32, amax float32, maxCross []float32) {
	nu := len(b)
	q.bounds = resizeF32(q.bounds, nu)
	q.heap = resizeSlice(q.heap, (nu+boundBlock-1)/boundBlock)
	bounds := q.bounds
	for i := range q.heap {
		lo := i * boundBlock
		hi := min(lo+boundBlock, nu)
		// Equal-length block slices let the loop run without bounds checks.
		bb, mc, bs := b[lo:hi], maxCross[lo:hi], bounds[lo:hi]
		mc, bs = mc[:len(bb)], bs[:len(bb)]
		best := boundEntry{negInf, int32(lo)}
		for j := range bb {
			v := bb[j] + amax + mc[j]
			bs[j] = v
			if v > best.bound {
				best = boundEntry{v, int32(lo + j)}
			}
		}
		q.heap[i] = best
	}
	for i := len(q.heap)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}

// top is the next bound in canonical order without removing it; its
// bound is −Inf once only partners with no pairs remain. The queue must
// hold at least one partner.
func (q *boundQueue) top() boundEntry { return q.heap[0] }

// pop removes and returns top: it marks the partner −Inf and replaces
// the root with its block's new best, the first partner holding the
// largest remaining bound. The queue must not be drained (top's bound
// is not −Inf).
func (q *boundQueue) pop() boundEntry {
	top := q.heap[0]
	u := top.u
	q.bounds[u] = negInf
	lo := int(u) &^ (boundBlock - 1)
	hi := min(lo+boundBlock, len(q.bounds))
	best := boundEntry{negInf, int32(lo)}
	for j, v := range q.bounds[lo:hi] {
		if v > best.bound {
			best = boundEntry{v, int32(lo + j)}
		}
	}
	q.heap[0] = best
	q.siftDown(0)
	return top
}

// siftDown restores the heap order below position i.
func (q *boundQueue) siftDown(i int) {
	h := q.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
