package ta

import (
	"math"
	"slices"
	"time"

	"ebsn/internal/vecmath"
)

// FastIndex is the production top-n engine for the transformed space. The
// generic Fagin TA of Index treats the 2K+1 coordinates as opaque lists,
// which on dense signed embeddings degenerates (fat-tailed spectra keep
// the threshold high; see EXPERIMENTS.md). FastIndex instead exploits the
// product structure the transformation creates:
//
//	score(u; x, u') = u·x + u·u' + x·u' = a(x) + b(u') + cross(x, u')
//
// a and b are computed once per query in (|X|+|U|)·K flops — streamed
// over the set's packed row-major storage with vecmath.DotBatch; cross is
// precomputed per pair at build time. Candidates are grouped by partner,
// each partner u' carries the offline bound maxCross(u') over its own
// candidate events, and the query consumes partners in decreasing
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
// average, with p99 ≤ 65 across the exact, constrained and quantized
// walks. This is the same threshold-algorithm contract as Index (sorted
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
	workers = resolveWorkers(workers)
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
	parallelFor(len(counts), workers, func(c int) {
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
	parallelFor(len(counts), workers, func(c int) {
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
	parallelChunks(nu, workers, func(lo, hi int) {
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

// Query is one top-n search against a FastIndex: the fields are the
// whole difference between the exact, constrained and quantized variants
// of the same walk. Scores are exact float32 in every case; a Quantized
// query is approximate only in which pairs survive to be scored (see
// quant.go).
type Query struct {
	// Vec is the querying user's embedding (length K).
	Vec []float32
	// N is the number of results wanted.
	N int
	// Exclude is one partner to leave out of the results — the serving
	// path excludes the querying user, whose self-pairs would otherwise
	// crowd the top of the list (u·u is a squared norm and u's own
	// candidate events score u·x twice). Negative excludes no one; note
	// the zero value excludes partner 0.
	Exclude int32
	// Pred optionally restricts results to predicate-allowed events (see
	// EventPredicate). Nil means unrestricted.
	Pred EventPredicate
	// Quantized runs the affinity passes over the int8 mirrors and
	// re-ranks the survivors exactly; the set must have been packed with
	// PackQuantized.
	Quantized bool
}

// Search answers q: the top-n pairs in canonical order (Result.Outranks)
// with access statistics. RandomAccesses counts exactly the pairs whose
// score was materialized; SortedAccesses counts the partner bounds
// popped. Every per-query buffer, including the returned slice, comes
// from sc, so a warmed scratch makes the query allocation-free; the
// results alias sc and are valid only until its next use. Fewer than n
// results come back when fewer non-excluded, predicate-allowed pairs
// exist.
func (f *FastIndex) Search(q Query, sc *Scratch) ([]Result, SearchStats) {
	start := time.Now()
	set := f.set
	set.checkQuery(q.Pred, q.Quantized)
	stats := SearchStats{Candidates: len(set.Pairs)}
	n := min(q.N, len(set.Pairs))
	if n <= 0 {
		return nil, stats
	}
	// Per-query event and partner affinities, streamed over the packed
	// rows.
	sc.a = set.affinities(q.Vec, eventSide, q.Quantized, sc.a, sc)
	sc.b = set.affinities(q.Vec, partnerSide, q.Quantized, sc.b, sc)
	res := f.walk(q.Vec, sc.a, sc.b, n, q.Exclude, q.Pred, q.Quantized, sc, &stats, sc.out[:0])
	sc.out = res[:0]
	stats.Elapsed = time.Since(start)
	return res, stats
}

// TopN is Search for callers without a scratch: the exact unconstrained
// top n with no partner excluded, in a freshly allocated slice.
func (f *FastIndex) TopN(userVec []float32, n int) ([]Result, SearchStats) {
	sc := GetScratch()
	defer PutScratch(sc)
	res, stats := f.Search(Query{Vec: userVec, N: n, Exclude: -1}, sc)
	return slices.Clone(res), stats
}

// TopNExcludingScratch is the exact unconstrained Search. It and the two
// names below are positional spellings the benchmark harness compiles
// against; new callers build a Query.
func (f *FastIndex) TopNExcludingScratch(userVec []float32, n int, exclude int32, sc *Scratch) ([]Result, SearchStats) {
	return f.Search(Query{Vec: userVec, N: n, Exclude: exclude}, sc)
}

// TopNExcludingPredScratch is the exact Search under a predicate.
func (f *FastIndex) TopNExcludingPredScratch(userVec []float32, n int, exclude int32, pred EventPredicate, sc *Scratch) ([]Result, SearchStats) {
	return f.Search(Query{Vec: userVec, N: n, Exclude: exclude, Pred: pred}, sc)
}

// TopNExcludingQuantizedScratch is the unconstrained Quantized Search.
func (f *FastIndex) TopNExcludingQuantizedScratch(userVec []float32, n int, exclude int32, sc *Scratch) ([]Result, SearchStats) {
	return f.Search(Query{Vec: userVec, N: n, Exclude: exclude, Quantized: true}, sc)
}

// walk runs the threshold walk over precomputed affinities — a[x] per
// event, b[u] per partner — and drains the top n into dst in canonical
// order; stats accumulates the access counts. It is the core of Search
// and of every TopNBatch lane: both hand it affinities produced by the
// same accumulation order (DotBatch and DotPanel are bit-identical), so
// batched results match sequential ones bit for bit, ties included.
//
// pred, when non-nil, is pushed into the walk: amax ranges over allowed
// events only — so every partner bound is at most its unconstrained
// value and the stop fires no later than it would with the slack bound —
// and disallowed pairs are skipped without materializing a score. With
// quantized set, a and b are approximate: the walk keeps n·quantOverfetch
// survivors under them and vec re-scores those against the float32 rows,
// in the exact walk's operand order, so a survivor's final score is
// bit-identical to what the exact walk assigns the same pair.
func (f *FastIndex) walk(vec, a, b []float32, n int, exclude int32, pred EventPredicate, quantized bool, sc *Scratch, stats *SearchStats, dst []Result) []Result {
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
	keep := n
	if quantized {
		keep = min(n*quantOverfetch, len(set.Pairs))
	}

	q := &sc.queue
	q.fill(b, amax, f.maxCross)
	surv := &sc.cands
	*surv = (*surv)[:0]
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
		if len(*surv) == keep && (*surv)[0].r.Score > top.bound {
			break // no remaining partner can beat the current survivors
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
			c := cand{i, Result{x, u, a[x] + bu + set.Cross[i]}}
			if len(*surv) < keep {
				surv.push(c)
			} else if c.r.Outranks((*surv)[0].r) {
				surv.replaceMin(c)
			}
		}
	}

	for _, c := range *surv {
		r := c.r
		if quantized {
			r.Score = vecmath.Dot(vec, set.Events[r.Event]) + vecmath.Dot(vec, set.Partners[r.Partner]) + set.Cross[c.i]
		}
		if len(*h) < n {
			h.push(r)
		} else if r.Outranks((*h)[0]) {
			h.replaceMin(r)
		}
	}
	return h.drainDescending(dst)
}

// cand is one walk survivor: the canonical-order key under the walk's
// (exact or approximate) score plus the pair index the exact re-rank
// needs.
type cand struct {
	i int32
	r Result
}

// candHeap is a min-heap of survivors in the canonical order of their
// walk scores, mirroring resultHeap.
type candHeap []cand

// push adds c, sifting up.
func (h *candHeap) push(c cand) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[p].r.Outranks(s[i].r) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// replaceMin overwrites the root with c and sifts down.
func (h candHeap) replaceMin(c cand) {
	h[0] = c
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[m].r.Outranks(h[l].r) {
			m = l
		}
		if r < len(h) && h[m].r.Outranks(h[r].r) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
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
