// Package ta implements the paper's fast online event-partner
// recommendation (Section IV): the space transformation that turns the
// joint score u·x + u'·x + u·u' into a single inner product, the
// per-partner top-k event pruning that shrinks the candidate set from
// |U|·|X| to |U|·k, and Fagin's Threshold Algorithm over per-dimension
// sorted lists (GEM-TA), with a brute-force scorer (GEM-BF) as the
// comparison point of Table VI.
//
// [BuildCandidates] materializes the transformed space as a
// [CandidateSet]; [NewIndex] and [NewFastIndex] construct the static TA
// indexes over it, a [Delta] collects live-ingested events beside one
// ([Delta.MergeTopN] overlays it on a base answer) and [FoldDelta] folds
// it in. Every production query is one [FastIndex.Search] of a [Query]
// and reports its work in [SearchStats] — sorted and random accesses,
// heap pops, candidates scored, and wall-clock time inside the index —
// which the serve layer exports as Prometheus metrics and span attrs.
//
// The query path is allocation-free at steady state: per-query scratch
// comes from a [Scratch] pool and the packed row-major vector storage
// keeps the affinity passes sequential. Determinism: for a given set
// and k, results are reproducible across runs and worker counts.
package ta
