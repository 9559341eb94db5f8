package ta

import "sync"

// Scratch owns every per-query buffer of the TA hot paths: the packed
// query panel and affinity panels of TopNBatch, the walk's partner-bound
// queue and heaps, the delta scan's event affinities, and the result
// slices TopNBatch returns. A warmed Scratch makes steady-state queries
// allocation-free.
//
// A Scratch is not safe for concurrent use; take one per query from
// GetScratch (a sync.Pool) and return it with PutScratch. Results
// returned by queries that take a Scratch alias its buffers and are
// valid only until the Scratch's next use.
type Scratch struct {
	// Panel state: the packed b×K query panel and the event (b×|X|) and
	// partner (b×|U|) affinity panels.
	qs  []float32
	aff []float32
	bp  []float32

	// Walk state, reused across a batch's lanes: the partner bounds in
	// canonical pop order and the top-n heap.
	queue   boundQueue
	results resultHeap

	// Delta scan state (BatchQuery.Delta): u·x per delta event.
	deltaA []float32

	// Outputs: the backing array of every lane's results and the
	// per-lane views and stats.
	out   []Result
	res   [][]Result
	stats []SearchStats

	// A one-lane query's user row and exclude (see lane), held here so
	// loading the lane allocates nothing.
	user [1][]float32
	excl [1]int32
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

// GetBatchScratch is GetScratch. It remains only because the benchmark
// harness names it.
func GetBatchScratch() *Scratch { return GetScratch() }

// PutBatchScratch is PutScratch. It remains only because the benchmark
// harness names it.
func PutBatchScratch(sc *Scratch) { PutScratch(sc) }
