// Package isort provides allocation-free sorting and selection of int32
// id slices keyed by a value array — the permutation-sort shape every
// ranking structure in this repo needs (TA index lists, the adaptive
// sampler's per-dimension rankings, the exact sampler's per-draw
// ranking). The comparator is vals[id], so the sort never moves the
// float payload and never allocates a closure: on these workloads the
// introsort runs several times faster than sort.Slice and its friends,
// and unlike sort.SliceStable it costs nothing per call in interface
// conversions.
//
// The entry points are [SortAsc] and [SortDesc] for full orderings and
// [SelectAsc] for partial selection when only the head of the ranking
// is needed (quickselect, no ordering inside or beyond the prefix).
// All of them operate on the id slice in place and never touch vals.
// [SelectTopUnique] is SelectAsc's fast path for a short top k: a heap
// pass that answers only when the k-th value is untied, so its set is
// the one SelectAsc would pick.
//
// The algorithms are deterministic for a given input, which the
// per-seed training reproducibility guarantees rely on; they are NOT
// stable, so equal-valued ids may appear in any fixed order.
package isort
