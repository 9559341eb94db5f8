// Package ta implements the paper's fast online event-partner
// recommendation (Section IV): the space transformation that turns the
// joint score u·x + u'·x + u·u' into a single inner product, the
// per-partner top-k event pruning that shrinks the candidate set from
// |U|·|X| to |U|·k, and a threshold-algorithm walk over it (GEM-TA),
// with a brute-force scorer (GEM-BF) as the comparison point of Table
// VI. The literal Fagin TA over per-dimension sorted lists, Table VI's
// third column, lives in internal/experiments/fagin.
//
// [BuildCandidates] materializes the transformed space as a
// [CandidateSet]; [NewFastIndex] constructs the static index over it, a
// [Delta] collects live-ingested events beside one and [FoldDelta]
// folds it in. Every query is a lane of one [FastIndex.TopNBatch] — a
// single query is a batch of one — whose walk, given a
// [BatchQuery.Delta], is followed by a scan of the delta's pairs under a
// per-partner bound, so the lane answers over both tiers. A lane reports
// its work in [SearchStats]: partner bounds popped, pairs scored, and
// wall-clock time inside the index, which the serve layer exports as
// Prometheus metrics and span attrs.
//
// The query path is allocation-free at steady state: every per-query
// buffer lives in one [Scratch] type, pooled by [GetScratch], and the
// packed row-major vector storage keeps the affinity passes sequential.
// Determinism: for a given set and k, results are reproducible across
// runs, worker counts and batch widths.
package ta
