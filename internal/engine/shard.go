package engine

import (
	"time"

	"ebsn/internal/ta"
)

// shard is one contiguous partner range of the candidate space: a
// self-contained candidate set over partners [lo, hi) — events
// replicated, partner rows copied — with its own FastIndex. Local partner
// IDs are global IDs minus lo.
type shard struct {
	set    *ta.CandidateSet
	idx    *ta.FastIndex
	lo, hi int32
}

// shardRun is one shard's side of a fan-out: its batch scratch, the
// shard-local exclusions, and what the walk returned.
type shardRun struct {
	bsc   ta.BatchScratch
	excl  []int32
	res   [][]ta.Result    // per lane, global partner IDs; aliases bsc
	stats []ta.SearchStats // per lane; aliases bsc
	wall  time.Duration
}

// search answers every lane of q on the shard with one partner-panel
// pass, translating the global exclusions into local IDs on the way in
// and the results' partners back to global IDs, in place, on the way
// out. A constant offset preserves the canonical order, which breaks
// score ties by ascending partner.
func (s *shard) search(q ta.BatchQuery, exclude []int32, r *shardRun) {
	s0 := time.Now()
	if exclude != nil {
		r.excl = resize(r.excl, len(exclude))
		for j, g := range exclude {
			r.excl[j] = -1
			if g >= s.lo && g < s.hi {
				r.excl[j] = g - s.lo
			}
		}
		q.Exclude = r.excl
	}
	r.res, r.stats = s.idx.TopNBatch(q, &r.bsc)
	for _, rs := range r.res {
		for i := range rs {
			rs[i].Partner += s.lo
		}
	}
	r.wall = time.Since(s0)
}
