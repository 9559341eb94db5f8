package ta

import (
	"fmt"
	"sync"
	"time"

	"ebsn/internal/vecmath"
)

// Batched queries share the expensive part of a top-n search — the
// affinity passes over the packed event and partner rows — across B
// users via the matrix-panel kernels (vecmath.DotPanel and its int8
// twin). The threshold walk still runs per user — it is inherently
// data-dependent, and it is the same walk a single Search runs. Its
// fixed cost is one linear fill of the partner bounds; the rest scales
// with the bounds it pops, a handful per query on the benchmark city.
// Because DotPanel is bit-identical to repeated Dot calls, a batched
// query returns exactly the results the same users would get
// sequentially, tie ordering included.

// BatchQuery describes one batched top-n request against a FastIndex.
type BatchQuery struct {
	// Users holds one K-dim user vector per batch lane. Rows may have
	// different backing arrays; they are packed contiguously into the
	// scratch before the panel pass.
	Users [][]float32
	// N is the per-user result count.
	N int
	// Exclude holds one partner ID to exclude per user (the serving
	// path excludes the querying user). Nil means exclude no one;
	// otherwise the length must match Users.
	Exclude []int32
	// EventAff optionally carries a precomputed event-affinity panel,
	// laid out [user-major] u*|X| .. (u+1)*|X|, produced by
	// EventAffinityPanel on a set with identical event rows (the
	// sharded engine computes it once and shares it across shards).
	// Nil means compute it here.
	EventAff []float32
	// Quantized routes the search through the int8 mirrors with exact
	// re-ranking; the set must have been packed with PackQuantized.
	Quantized bool
	// Pred optionally restricts every query in the batch to
	// predicate-allowed events (the batch shares one predicate — callers
	// with per-user predicates issue single queries instead; see the
	// serving coalescer, which never folds constrained requests). Nil
	// means unrestricted and is bit-identical to the unconstrained batch.
	Pred EventPredicate
}

// BatchScratch owns every per-batch buffer of TopNBatch: the packed
// query panel, its quantized mirror, the affinity panels, and the
// per-user walk scratch and result slices. A warmed BatchScratch makes
// steady-state batched queries allocation-free. Not safe for concurrent
// use; take one from GetBatchScratch per batch.
type BatchScratch struct {
	qs     []float32 // packed query panel, b×K row-major
	q8     []int8    // quantized query panel
	qscale []float32 // per-query quantization scales
	aff    []float32 // event-affinity panel, b×|X|
	bp     []float32 // partner-affinity panel, b×|U|
	i32    []int32   // widening dot results for the quantized panels
	per    Scratch   // walk state, reused across the batch's users
	out    []Result  // backing array for all users' results
	res    [][]Result
	stats  []SearchStats
}

var batchScratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// GetBatchScratch takes a batch scratch from the pool. Pair with
// PutBatchScratch.
func GetBatchScratch() *BatchScratch { return batchScratchPool.Get().(*BatchScratch) }

// PutBatchScratch returns a batch scratch to the pool. The caller must
// not touch the scratch — or any batch results that alias it —
// afterwards.
func PutBatchScratch(bsc *BatchScratch) {
	if bsc != nil {
		batchScratchPool.Put(bsc)
	}
}

// packQueries copies the user vectors into the scratch's contiguous
// b×K panel, quantizing each row as well when quantized is set.
func (c *CandidateSet) packQueries(users [][]float32, quantized bool, bsc *BatchScratch) {
	b, k := len(users), c.K
	bsc.qs = resizeF32(bsc.qs, b*k)
	for j, u := range users {
		if len(u) != k {
			panic(fmt.Sprintf("ta: batch user %d has dim %d, want %d", j, len(u), k))
		}
		copy(bsc.qs[j*k:(j+1)*k], u)
	}
	if quantized {
		bsc.q8 = resizeSlice(bsc.q8, b*k)
		bsc.qscale = resizeF32(bsc.qscale, b)
		for j := range users {
			bsc.qscale[j] = vecmath.QuantizeRow(bsc.qs[j*k:(j+1)*k], bsc.q8[j*k:(j+1)*k])
		}
	}
}

// panel fills dst (grown as needed) with the b×rows affinity panel of
// the packed queries against one side of the space, user-major: the
// batch twin of affinities, over the same kernels' panel forms.
func (c *CandidateSet) panel(nb int, partners, quantized bool, dst []float32, bsc *BatchScratch) []float32 {
	rows, data, q8, scale := c.side(partners)
	dst = resizeF32(dst, nb*rows)
	if !quantized {
		vecmath.DotPanel(bsc.qs, nb, data, c.K, dst)
		return dst
	}
	bsc.i32 = resizeSlice(bsc.i32, nb*rows)
	vecmath.DotPanelI8(bsc.q8, nb, q8, c.K, bsc.i32)
	for j := 0; j < nb; j++ {
		scaleWidened(bsc.qscale[j], scale, bsc.i32[j*rows:(j+1)*rows], dst[j*rows:(j+1)*rows])
	}
	return dst
}

// EventAffinityPanel computes the b×|X| event-affinity panel for the
// batch: row j holds Users[j]·Events[x] for every event, produced by
// the same kernels as TopNBatch's internal pass so handing the panel
// back in via BatchQuery.EventAff is bit-identical to recomputing it.
// The sharded engine calls this once per query — a single query is a
// one-lane panel — on its affinity set and shares the panel across
// shards. The returned slice aliases bsc.
func (c *CandidateSet) EventAffinityPanel(users [][]float32, quantized bool, bsc *BatchScratch) []float32 {
	c.checkQuery(nil, quantized)
	c.packQueries(users, quantized, bsc)
	bsc.aff = c.panel(len(users), eventSide, quantized, bsc.aff, bsc)
	return bsc.aff
}

// TopNBatch answers every query in the batch against the index with one
// panel pass per side of the space and one walk per lane — the walk
// Search runs, so every lane is bit-identical to the same Query issued
// alone. Results and stats are per-user, indexed like q.Users; both
// alias bsc and are valid only until its next use. Per-user SearchStats
// count that user's walk, and Elapsed adds a 1/b share of the panel
// passes, so the lanes' Elapsed sums to the call's time in the index.
func (f *FastIndex) TopNBatch(q BatchQuery, bsc *BatchScratch) ([][]Result, []SearchStats) {
	set := f.set
	nb := len(q.Users)
	if q.Exclude != nil && len(q.Exclude) != nb {
		panic(fmt.Sprintf("ta: batch has %d users but %d excludes", nb, len(q.Exclude)))
	}
	set.checkQuery(q.Pred, q.Quantized)
	bsc.res = resizeSlice(bsc.res, nb)
	bsc.stats = resizeSlice(bsc.stats, nb)
	if nb == 0 {
		return bsc.res, bsc.stats
	}

	passes := time.Now()
	nx, nu, k := len(set.Events), len(set.Partners), set.K
	aff := q.EventAff
	if aff == nil {
		aff = set.EventAffinityPanel(q.Users, q.Quantized, bsc)
	} else {
		if len(aff) != nb*nx {
			panic(fmt.Sprintf("ta: event-affinity panel has %d entries, want %d", len(aff), nb*nx))
		}
		// Still pack (and quantize) the queries: the partner pass and
		// the quantized re-rank need them.
		set.packQueries(q.Users, q.Quantized, bsc)
	}
	bsc.bp = set.panel(nb, partnerSide, q.Quantized, bsc.bp, bsc)
	share := time.Since(passes) / time.Duration(nb)

	nc := len(set.Pairs)
	n := max(min(q.N, nc), 0)
	bsc.out = resizeSlice(bsc.out, nb*n)
	for j := 0; j < nb; j++ {
		start := time.Now()
		stats := SearchStats{Candidates: nc}
		var res []Result
		if n > 0 {
			exclude := int32(-1)
			if q.Exclude != nil {
				exclude = q.Exclude[j]
			}
			res = f.walk(bsc.qs[j*k:(j+1)*k], aff[j*nx:(j+1)*nx], bsc.bp[j*nu:(j+1)*nu],
				n, exclude, q.Pred, q.Quantized, &bsc.per, &stats, bsc.out[j*n:j*n:j*n+n])
		}
		stats.Elapsed = share + time.Since(start)
		bsc.res[j] = res
		bsc.stats[j] = stats
	}
	return bsc.res, bsc.stats
}
