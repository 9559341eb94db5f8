package ta

import (
	"fmt"
	"time"

	"ebsn/internal/vecmath"
)

// Every top-n query is a TopNBatch: a batch shares the expensive part of
// the search — the affinity passes over the packed event and partner
// rows — across its b users via the matrix-panel kernel
// (vecmath.DotPanel), and a single query is a batch of one, whose
// one-lane panel is DotBatch's one-query kernel (SSE2 on amd64, four
// candidate rows per step). At the serving shape (k = 60, 600 events,
// 11 890 partners) a one-lane pass pair costs about 120–160 µs on a
// 2-vCPU Xeon, roughly half of BenchmarkTopNBatch/serving/exact/b=1;
// a wider panel also loads each candidate row once for four lanes. The
// threshold walk runs per lane: it is inherently data-dependent. Its
// fixed cost is one linear fill of the partner bounds; the rest scales
// with the bounds it pops, a handful per query on the benchmark city.
// Because DotPanel is bit-identical to repeated Dot calls, a lane
// returns exactly the results the same query gets in a batch of any
// width, tie ordering included.

// BatchQuery describes one batched top-n request against a FastIndex.
type BatchQuery struct {
	// Users holds one K-dim user vector per batch lane. Rows may have
	// different backing arrays; they are packed contiguously into the
	// scratch before the panel pass.
	Users [][]float32
	// N is the per-user result count.
	N int
	// Exclude holds one partner ID to exclude per user — the serving
	// path excludes the querying user, whose self-pairs would otherwise
	// crowd the top of the list. A negative entry excludes no one. Nil
	// means exclude no one; otherwise the length must match Users.
	Exclude []int32
	// EventAff optionally carries a precomputed event-affinity panel,
	// laid out [user-major] u*|X| .. (u+1)*|X|, produced by
	// EventAffinityPanel on a set with identical event rows (the
	// sharded engine computes it once and shares it across shards).
	// Nil means compute it here.
	EventAff []float32
	// Pred optionally restricts every query in the batch to
	// predicate-allowed events (the batch shares one predicate — callers
	// with per-user predicates issue single queries instead; see the
	// serving coalescer, which never folds constrained requests). Nil
	// means unrestricted and is bit-identical to the unconstrained batch.
	Pred EventPredicate
}

// packQueries copies the user vectors into the scratch's contiguous
// b×K panel.
func (c *CandidateSet) packQueries(users [][]float32, sc *Scratch) {
	b, k := len(users), c.K
	sc.qs = resizeF32(sc.qs, b*k)
	for j, u := range users {
		if len(u) != k {
			panic(fmt.Sprintf("ta: batch user %d has dim %d, want %d", j, len(u), k))
		}
		copy(sc.qs[j*k:(j+1)*k], u)
	}
}

// panel fills dst (grown as needed) with the b×rows affinity panel of
// the packed queries against one side of the space's packed rows,
// user-major.
func (c *CandidateSet) panel(nb int, partners bool, dst []float32, sc *Scratch) []float32 {
	rows, data := c.side(partners)
	dst = resizeF32(dst, nb*rows)
	vecmath.DotPanel(sc.qs, nb, data, c.K, dst)
	return dst
}

// EventAffinityPanel computes the b×|X| event-affinity panel for the
// batch: row j holds Users[j]·Events[x] for every event, produced by
// the same kernel as TopNBatch's internal pass so handing the panel
// back in via BatchQuery.EventAff is bit-identical to recomputing it.
// The sharded engine calls this once per query — a single query is a
// one-lane panel — on its affinity set and shares the panel across
// shards. The returned slice aliases sc.
func (c *CandidateSet) EventAffinityPanel(users [][]float32, sc *Scratch) []float32 {
	c.packQueries(users, sc)
	sc.aff = c.panel(len(users), eventSide, sc.aff, sc)
	return sc.aff
}

// TopNBatch answers every query in the batch against the index with one
// panel pass per side of the space and one walk per lane, so every lane
// is bit-identical to the same query issued as a batch of one. Each lane
// returns the top n pairs in canonical order (Result.Outranks), fewer
// when fewer non-excluded, predicate-allowed pairs exist. Results and
// stats are per-user, indexed like q.Users; both alias sc and are valid
// only until its next use. Per-user SearchStats
// count that user's walk, and Elapsed adds a 1/b share of the panel
// passes, so the lanes' Elapsed sums to the call's time in the index.
func (f *FastIndex) TopNBatch(q BatchQuery, sc *Scratch) ([][]Result, []SearchStats) {
	set := f.set
	nb := len(q.Users)
	if q.Exclude != nil && len(q.Exclude) != nb {
		panic(fmt.Sprintf("ta: batch has %d users but %d excludes", nb, len(q.Exclude)))
	}
	set.checkPred(q.Pred)
	sc.res = resizeSlice(sc.res, nb)
	sc.stats = resizeSlice(sc.stats, nb)
	if nb == 0 {
		return sc.res, sc.stats
	}

	passes := time.Now()
	nx, nu := len(set.Events), len(set.Partners)
	aff := q.EventAff
	if aff == nil {
		aff = set.EventAffinityPanel(q.Users, sc)
	} else {
		if len(aff) != nb*nx {
			panic(fmt.Sprintf("ta: event-affinity panel has %d entries, want %d", len(aff), nb*nx))
		}
		// Still pack the queries: the partner pass needs them.
		set.packQueries(q.Users, sc)
	}
	sc.bp = set.panel(nb, partnerSide, sc.bp, sc)
	share := time.Since(passes) / time.Duration(nb)

	nc := len(set.Pairs)
	n := max(min(q.N, nc), 0)
	sc.out = resizeSlice(sc.out, nb*n)
	for j := 0; j < nb; j++ {
		start := time.Now()
		stats := SearchStats{Candidates: nc}
		var res []Result
		if n > 0 {
			exclude := int32(-1)
			if q.Exclude != nil {
				exclude = q.Exclude[j]
			}
			res = f.walk(aff[j*nx:(j+1)*nx], sc.bp[j*nu:(j+1)*nu],
				n, exclude, q.Pred, sc, &stats, sc.out[j*n:j*n:j*n+n])
		}
		stats.Elapsed = share + time.Since(start)
		sc.res[j] = res
		sc.stats[j] = stats
	}
	return sc.res, sc.stats
}
