package ta

import (
	"container/heap"
	"time"

	"ebsn/internal/isort"
)

// Index is the TA search structure over a candidate set: per indexed
// dimension, the candidate indices sorted by that coordinate. Building is
// O(D·C·log C) offline (parallel across dimensions; see
// NewIndexWorkers); queries then use Fagin's Threshold Algorithm, which
// stops as soon as the running threshold proves no unseen candidate can
// enter the top n.
//
// The index works in a reduced K+1-dimensional form of the paper's
// transformation: since the query duplicates the user vector across the
// first two blocks, u·x + u'·x + u·u' = u·(x+u') + x·u', so each pair is
// indexed as p̃ = (x+u', x·u') with query q̃ = (u, 1). The scores are
// identical to the paper's (2K+1)-dim formulation (see the space
// transform property tests) while the threshold — a sum of per-dimension
// maxima — is over half as many, strictly tighter, terms. That is what
// makes TA touch the small candidate fractions Table VI reports.
//
// Embeddings are signed, so the sorted lists are read from whichever end
// yields decreasing contribution q_d·p_d for the query at hand: top-down
// for q_d > 0, bottom-up for q_d < 0. The threshold remains a valid upper
// bound either way.
type Index struct {
	set  *CandidateSet
	dims int
	// rot is the (K+1)×(K+1) orthogonal rotation (column eigenvectors).
	rot []float64
	// vals[d][i] is rotated reduced coordinate d of pair i.
	vals [][]float32
	// sorted[d] lists candidate indices in ascending order of vals[d].
	sorted [][]int32
}

// NewIndex builds the per-dimension sorted lists using all available
// CPUs. See NewIndexWorkers.
func NewIndex(set *CandidateSet) *Index { return NewIndexWorkers(set, 0) }

// NewIndexWorkers builds the per-dimension sorted lists with the given
// parallelism (≤ 0 means GOMAXPROCS). Before sorting, the reduced
// coordinates are rotated onto the principal axes of the candidate cloud
// (a shared orthogonal rotation leaves every inner product, and hence
// every score and threshold, unchanged). Learned embeddings are strongly
// anisotropic, so after rotation a handful of dimensions carry almost
// all score variance and the TA threshold collapses after a short
// prefix — the effect behind the paper's ~8% access fraction.
//
// Extraction, rotation and sorting parallelize per dimension; the
// second-moment accumulation parallelizes over fixed-size row blocks
// merged in block order, so the estimated axes do not depend on the
// worker count.
func NewIndexWorkers(set *CandidateSet, workers int) *Index {
	workers = resolveWorkers(workers)
	set.Pack()
	dims := set.K + 1
	n := len(set.Pairs)

	// Reduced coordinates per pair.
	raw := make([][]float32, dims)
	parallelFor(dims, workers, func(d int) {
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
	parallelFor(nblocks, workers, func(blk int) {
		mom := make([]float64, dims*dims)
		lo, hi := blk*momentBlock, (blk+1)*momentBlock
		if hi > samples {
			hi = samples
		}
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
	parallelFor(dims, workers, func(d int) {
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
		sortInt32sByVal(ids, vals)
		idx.vals[d] = vals
		idx.sorted[d] = ids
	})
	return idx
}

// sortInt32sByVal sorts ids ascending by vals[id] with the shared
// introsort (quicksort with a depth guard falling back to heapsort, so
// an adversarial ordering cannot push the build quadratic).
func sortInt32sByVal(ids []int32, vals []float32) {
	// vals is indexed by candidate id.
	isort.SortAsc(ids, vals)
}

// SearchStats reports how much work one TA query did — the instrument
// behind the paper's observation that top-10 queries touch only ~8% of
// the candidate pairs.
type SearchStats struct {
	// SortedAccesses counts positions consumed across all sorted lists
	// (for FastIndex: partner bounds popped).
	SortedAccesses int
	// RandomAccesses counts full score computations (distinct candidates
	// seen).
	RandomAccesses int
	// Candidates is the total pair count, for fractions.
	Candidates int
	// Elapsed is the wall-clock time the query spent inside the index,
	// excluding scratch acquisition. Reading the monotonic clock twice
	// costs ~50ns against a ~300µs query, so it is always on.
	Elapsed time.Duration
}

// AccessFraction is the fraction of candidate pairs score-evaluated.
func (s SearchStats) AccessFraction() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.RandomAccesses) / float64(s.Candidates)
}

// TopN runs the Threshold Algorithm for the user vector and returns the
// exact top-n candidates by joint score, descending.
func (idx *Index) TopN(userVec []float32, n int) ([]Result, SearchStats) {
	sc := GetScratch()
	defer PutScratch(sc)
	return idx.topN(userVec, n, sc, nil)
}

// TopNScratch is TopN with caller-managed scratch; the results alias sc
// and are valid only until its next use.
func (idx *Index) TopNScratch(userVec []float32, n int, sc *Scratch) ([]Result, SearchStats) {
	res, stats := idx.topN(userVec, n, sc, sc.out[:0])
	sc.out = res[:0]
	return res, stats
}

func (idx *Index) topN(userVec []float32, n int, sc *Scratch, dst []Result) ([]Result, SearchStats) {
	start := time.Now()
	set := idx.set
	nc := len(set.Pairs)
	stats := SearchStats{Candidates: nc}
	if n <= 0 || nc == 0 {
		return nil, stats
	}
	if n > nc {
		n = nc
	}
	// Reduced query q̃ = (u, 1), rotated into the index basis.
	dims := idx.dims
	sc.q = resizeF32(sc.q, dims)
	q := sc.q
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
	sc.sizeSeen(nc)
	h := &sc.results
	*h = (*h)[:0]

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

		if !sc.markSeen(cand) {
			stats.RandomAccesses++
			r := Result{set.Pairs[cand].Event, set.Pairs[cand].Partner, set.Score(userVec, int(cand))}
			if len(*h) < n {
				h.push(r)
			} else if r.Outranks((*h)[0]) {
				h.replaceMin(r)
			}
		}
		// Threshold check: no unseen candidate can beat τ.
		if len(*h) == n && float64((*h)[0].Score) >= tau-1e-6 {
			break
		}
	}
	stats.Elapsed = time.Since(start)
	return h.drainDescending(dst), stats
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
