// Package engine is the sharded scatter-gather layer between the serving
// stack and the TA index: it partitions the transformed candidate space
// into contiguous partner-range shards at build time, fans each query out
// to per-shard threshold-algorithm searches, and merges the per-shard
// top-n lists into one exact answer.
//
// # Why sharding is exact
//
// The TA threshold bound is valid over any subset of the candidate rows:
// a shard holding partners [lo, hi) runs the exact same search it would
// run as a standalone index over those partners, so its local top-n is
// the true top-n of its partition. Results follow a canonical total
// order — score descending, ties by ascending partner then ascending
// event (ta.Result.Outranks) — which makes every top-n set
// traversal-order independent. The global canonical top-n therefore
// satisfies: each of its members is, within its home shard, outranked by
// fewer than n pairs, hence a member of that shard's canonical top-n.
// So the global top-n is contained in the union of the per-shard top-n
// lists, and an n-element merge of those lists in canonical order
// reproduces the monolithic answer bit for bit — for any shard count.
// The property tests assert this, including at tied boundaries.
//
// # One fan-out
//
// Every query is a set of lanes, and a single query is a batch of one.
// Engine.Search is the one entry; it runs four steps: one shared
// event-affinity panel, one ta.FastIndex.TopNBatch call per shard over
// all lanes, one stats sum, and one canonical merge per lane. SearchInto
// and SearchBatch are one-line calls of it, kept for the benchmark
// harness. A lane's panel row is bit-identical to a lone DotBatch and
// every lane runs the same walk, so a query's answer does not depend on
// the batch it rides in. A query over the live tier passes the delta to
// Search (with a predicate, if any, covering the delta's events too),
// and each shard's lanes scan the delta pairs of the partners it owns
// after their walks, so the same argument makes that answer exact too.
// Shards are in-process structs sharing memory with the engine; there is
// no RPC-shaped seam, and moving shards out of process would need a
// design of its own.
//
// # Cost model
//
// Per-query work splits into a shard-invariant prepass (the event
// affinity panel, computed once and shared), per-shard work that shrinks
// linearly with the shard count (the partner affinity panel, bound
// fill, and TA scan over roughly 1/N of the partners), and an O(n·N)
// merge per lane. Wall-clock latency improves with shards only when
// cores are free to run them; Stats.CriticalPath reports the prepass +
// slowest shard + merge path — the latency an N-core box observes — next
// to the measured wall time.
package engine
