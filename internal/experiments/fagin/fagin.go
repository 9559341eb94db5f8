// Package fagin is the literal Fagin Threshold Algorithm (Fagin, Lotem &
// Naor, PODS 2001) over the paper's transformed space: per-dimension
// sorted lists of the candidate points, read in decreasing contribution
// until the threshold proves no unseen pair can enter the top n. It is
// the Fagin-TA column of Table VI and nothing else: the server answers
// every query with ta.FastIndex, which specializes the same contract to
// the pair structure. Only internal/experiments imports this package.
package fagin

import (
	"container/heap"
	"time"

	"ebsn/internal/isort"
	"ebsn/internal/par"
	"ebsn/internal/ta"
)

// Index is the TA search structure over a candidate set: per indexed
// dimension, the candidate indices sorted by that coordinate. Building is
// O(D·C·log C) offline (parallel across dimensions; see New); queries
// then use Fagin's Threshold Algorithm, which stops as soon as the
// running threshold proves no unseen candidate can enter the top n.
//
// The index works in a reduced K+1-dimensional form of the paper's
// transformation: since the query duplicates the user vector across the
// first two blocks, u·x + u'·x + u·u' = u·(x+u') + x·u', so each pair is
// indexed as p̃ = (x+u', x·u') with query q̃ = (u, 1). The scores are
// identical to the paper's (2K+1)-dim formulation (see the space
// transform property tests in internal/ta) while the threshold — a sum
// of per-dimension maxima — is over half as many, strictly tighter,
// terms. That is what makes TA touch the small candidate fractions
// Table VI reports.
//
// Embeddings are signed, so the sorted lists are read from whichever end
// yields decreasing contribution q_d·p_d for the query at hand: top-down
// for q_d > 0, bottom-up for q_d < 0. The threshold remains a valid upper
// bound either way.
type Index struct {
	set  *ta.CandidateSet
	dims int
	// rot is the (K+1)×(K+1) orthogonal rotation (column eigenvectors).
	rot []float64
	// vals[d][i] is rotated reduced coordinate d of pair i.
	vals [][]float32
	// sorted[d] lists candidate indices in ascending order of vals[d].
	sorted [][]int32
}

// New builds the per-dimension sorted lists with the given parallelism
// (≤ 0 means GOMAXPROCS). Before sorting, the reduced coordinates are
// rotated onto the principal axes of the candidate cloud (a shared
// orthogonal rotation leaves every inner product, and hence every score
// and threshold, unchanged). Learned embeddings are strongly
// anisotropic, so after rotation a handful of dimensions carry almost
// all score variance and the TA threshold collapses after a short
// prefix — the effect behind the paper's ~8% access fraction.
//
// Extraction, rotation and sorting parallelize per dimension; the
// second-moment accumulation parallelizes over fixed-size row blocks
// merged in block order, so the estimated axes do not depend on the
// worker count. Packs the set as a side effect.
func New(set *ta.CandidateSet, workers int) *Index {
	workers = par.Workers(workers)
	set.Pack()
	dims := set.K + 1
	n := len(set.Pairs)

	// Reduced coordinates per pair.
	raw := make([][]float32, dims)
	par.For(dims, workers, func(d int) {
		vals := make([]float32, n)
		if d < set.K {
			for i := 0; i < n; i++ {
				pair := set.Pairs[i]
				vals[i] = set.Events[pair.Event][d] + set.Partners[pair.Partner][d]
			}
		} else {
			copy(vals, set.Cross)
		}
		raw[d] = vals
	})

	// Second-moment matrix and its eigenvectors. Sampling rows is enough
	// to estimate the principal axes on large candidate sets. Partial
	// moments accumulate per fixed-size block and merge in block order:
	// bit-identical for every worker count.
	stride := 1
	if n > 20000 {
		stride = n / 20000
	}
	samples := (n + stride - 1) / stride
	const momentBlock = 4096
	nblocks := (samples + momentBlock - 1) / momentBlock
	partial := make([][]float64, nblocks)
	par.For(nblocks, workers, func(blk int) {
		mom := make([]float64, dims*dims)
		lo, hi := blk*momentBlock, min((blk+1)*momentBlock, samples)
		for s := lo; s < hi; s++ {
			i := s * stride
			for a := 0; a < dims; a++ {
				va := float64(raw[a][i])
				for b := a; b < dims; b++ {
					mom[a*dims+b] += va * float64(raw[b][i])
				}
			}
		}
		partial[blk] = mom
	})
	mom := make([]float64, dims*dims)
	for _, p := range partial {
		for i, v := range p {
			mom[i] += v
		}
	}
	for a := 0; a < dims; a++ {
		for b := 0; b < a; b++ {
			mom[a*dims+b] = mom[b*dims+a]
		}
	}
	_, evec := jacobiEigen(mom, dims)

	idx := &Index{
		set:    set,
		rot:    evec,
		dims:   dims,
		vals:   make([][]float32, dims),
		sorted: make([][]int32, dims),
	}
	// Rotate every pair's coordinate vector — vals'[d][i] =
	// Σ_a evec[a*dims+d]·raw[a][i] — and sort, one dimension per task.
	par.For(dims, workers, func(d int) {
		vals := make([]float32, n)
		for a := 0; a < dims; a++ {
			w := float32(evec[a*dims+d])
			if w == 0 {
				continue
			}
			col := raw[a]
			for i := 0; i < n; i++ {
				vals[i] += w * col[i]
			}
		}
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		// The shared introsort: an adversarial ordering cannot push the
		// build quadratic.
		isort.SortAsc(ids, vals)
		idx.vals[d] = vals
		idx.sorted[d] = ids
	})
	return idx
}

// Scratch owns one query's buffers: the rotated query, the cursors and
// their heap, the epoch-stamped seen set and the result slice. A warmed
// Scratch makes queries allocation-free. Not safe for concurrent use.
type Scratch struct {
	q       []float32
	cursors []cursor
	ch      cursorHeap
	seen    []uint32 // epoch stamps per candidate (replaces a map)
	epoch   uint32
	top     []ta.Result
}

// TopN runs the Threshold Algorithm for the user vector and returns the
// exact top-n candidates in canonical order (ta.Result.Outranks), with
// SortedAccesses counting list positions consumed and RandomAccesses
// the distinct candidates scored. The results alias sc and are valid
// only until its next use.
func (idx *Index) TopN(userVec []float32, n int, sc *Scratch) ([]ta.Result, ta.SearchStats) {
	start := time.Now()
	set := idx.set
	nc := len(set.Pairs)
	stats := ta.SearchStats{Candidates: nc}
	if n <= 0 || nc == 0 {
		return nil, stats
	}
	n = min(n, nc)
	// Reduced query q̃ = (u, 1), rotated into the index basis.
	dims := idx.dims
	if cap(sc.q) < dims {
		sc.q = make([]float32, dims)
	}
	q := sc.q[:dims]
	for d := 0; d < dims; d++ {
		var acc float64
		for a := 0; a < dims; a++ {
			var ra float64 = 1
			if a < set.K {
				ra = float64(userVec[a])
			}
			acc += idx.rot[a*dims+d] * ra
		}
		q[d] = float32(acc)
	}

	// Per-dimension cursor into the sorted list, walking from the end
	// that maximizes q_d·coordinate. Dimensions with q_d == 0 contribute
	// nothing and are skipped entirely. Cursors advance greedily: each
	// step consumes the dimension whose current bound contributes most to
	// the threshold, which drives τ down as fast as possible. (Classic TA
	// uses strict round-robin; any access order keeps the threshold a
	// valid upper bound, so correctness is unaffected.)
	cursors := sc.cursors[:0]
	var tau float64
	for d := 0; d < dims; d++ {
		if q[d] == 0 {
			continue
		}
		c := cursor{d: d, desc: q[d] > 0}
		list := idx.sorted[d]
		var v float32
		if c.desc {
			v = idx.vals[d][list[nc-1]]
		} else {
			v = idx.vals[d][list[0]]
		}
		c.contrib = float64(q[d]) * float64(v)
		tau += c.contrib
		cursors = append(cursors, c)
	}
	sc.cursors = cursors
	if len(cursors) == 0 {
		return nil, stats
	}
	// Max-heap over cursor contributions, as a slice-heap keyed by index.
	ch := &sc.ch
	ch.cs = cursors
	ch.order = ch.order[:0]
	for i := range cursors {
		ch.order = append(ch.order, i)
	}
	heap.Init(ch)

	// The seen set is an epoch-stamped array: clearing between queries is
	// an epoch bump, not an O(|C|) wipe or a fresh map.
	sc.nextEpoch(nc)
	top := sc.top[:0]

	for ch.Len() > 0 {
		i := ch.order[0] // dimension with the largest current bound
		c := &cursors[i]
		list := idx.sorted[c.d]
		var cand int32
		if c.desc {
			cand = list[nc-1-c.pos]
		} else {
			cand = list[c.pos]
		}
		v := idx.vals[c.d][cand]
		newContrib := float64(q[c.d]) * float64(v)
		tau += newContrib - c.contrib
		c.contrib = newContrib
		c.pos++
		stats.SortedAccesses++
		if c.pos >= nc {
			heap.Pop(ch)
		} else {
			heap.Fix(ch, 0)
		}

		if sc.seen[cand] != sc.epoch {
			sc.seen[cand] = sc.epoch
			stats.RandomAccesses++
			pair := set.Pairs[cand]
			top = insert(top, ta.Result{Event: pair.Event, Partner: pair.Partner, Score: set.Score(userVec, int(cand))}, n)
		}
		// Threshold check: no unseen candidate can beat τ.
		if len(top) == n && float64(top[n-1].Score) >= tau-1e-6 {
			break
		}
	}
	sc.top = top
	stats.Elapsed = time.Since(start)
	return top, stats
}

// insert adds r to top — canonical order, at most n entries — by
// shifting, dropping the n-th entry when r outranks it.
func insert(top []ta.Result, r ta.Result, n int) []ta.Result {
	if len(top) == n {
		if !r.Outranks(top[n-1]) {
			return top
		}
		top = top[:n-1]
	}
	j := len(top)
	top = append(top, r)
	for ; j > 0 && r.Outranks(top[j-1]); j-- {
		top[j] = top[j-1]
	}
	top[j] = r
	return top
}

// nextEpoch prepares the seen set for a query over n candidates: the
// array is grown (zeroed by the runtime) when too small, and the epoch
// is bumped so prior stamps expire without a clear. On the rare epoch
// wraparound the array is cleared once.
func (sc *Scratch) nextEpoch(n int) {
	if len(sc.seen) < n {
		sc.seen = make([]uint32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.seen)
		sc.epoch = 1
	}
}

// cursor walks one dimension's sorted list from the end that maximizes
// q_d·coordinate.
type cursor struct {
	d       int
	pos     int // 0-based steps taken
	desc    bool
	contrib float64 // q_d · (coordinate at current position)
}

// cursorHeap is a max-heap over cursor indices keyed by their current
// threshold contribution.
type cursorHeap struct {
	cs    []cursor
	order []int
}

func (h *cursorHeap) Len() int { return len(h.order) }
func (h *cursorHeap) Less(i, j int) bool {
	return h.cs[h.order[i]].contrib > h.cs[h.order[j]].contrib
}
func (h *cursorHeap) Swap(i, j int) { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *cursorHeap) Push(x any)    { h.order = append(h.order, x.(int)) }
func (h *cursorHeap) Pop() any {
	old := h.order
	n := len(old)
	x := old[n-1]
	h.order = old[:n-1]
	return x
}
