package ta

import "sync"

// Scratch owns every per-query buffer of the TA hot paths: the affinity
// arrays and lazy bound heap of FastIndex, the rotated query, cursors
// and epoch-stamped seen set of the Fagin Index, the result heaps, and
// the reusable result slices Search and MergeTopN return. A
// warmed Scratch makes steady-state queries allocation-free.
//
// A Scratch is not safe for concurrent use; take one per query from
// GetScratch (a sync.Pool) and return it with PutScratch. Results
// returned by queries that take a Scratch alias its buffers and are
// valid only until the Scratch's next use.
type Scratch struct {
	// FastIndex state.
	a      []float32      // per-event affinity u·x
	b      []float32      // per-partner affinity u·u'
	bounds []partnerBound // lazy max-heap of partner score bounds

	// Fagin Index state.
	q       []float32 // rotated reduced query
	cursors []cursor
	ch      cursorHeap
	seen    []uint32 // epoch stamps per candidate (replaces a map)
	epoch   uint32

	// Quantized query state: the int8-quantized query and its widening
	// dot results.
	q8  []int8
	i32 []int32

	// Shared result state: the walk's survivor heap, the top-n heap it
	// is drained through, and the output slices.
	cands   candHeap
	results resultHeap
	out     []Result
	dout    []DynamicResult
}

// markSeen reports whether candidate c was already stamped this query,
// stamping it if not. sizeSeen must have been called for the query.
func (sc *Scratch) markSeen(c int32) bool {
	if sc.seen[c] == sc.epoch {
		return true
	}
	sc.seen[c] = sc.epoch
	return false
}

// sizeSeen prepares the epoch-stamped seen set for a query over n
// candidates: the array is grown (zeroed by the runtime) when too small,
// and the epoch is bumped so prior stamps expire without a clear. On the
// rare epoch wraparound the array is cleared once.
func (sc *Scratch) sizeSeen(n int) {
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

// resizeF32 returns buf grown to length n, reusing capacity. Contents
// are unspecified.
func resizeF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// resizeSlice is resizeF32 for any element type.
func resizeSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a query scratch from the pool. Pair with PutScratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a scratch to the pool. The caller must not touch
// the scratch — or any query results that alias it — afterwards.
func PutScratch(sc *Scratch) {
	if sc != nil {
		scratchPool.Put(sc)
	}
}
