package ta

import (
	"slices"

	"ebsn/internal/vecmath"
)

// Query, Search and TopN are the tests' single-query spellings. Each
// runs one lane (a one-lane TopNBatch), the path every query takes.
type Query struct {
	Vec     []float32
	N       int
	Exclude int32 // negative excludes no one
	Pred    EventPredicate
	Delta   *Delta
}

// Search answers q as one lane; the results alias sc.
func (f *FastIndex) Search(q Query, sc *Scratch) ([]Result, SearchStats) {
	if q.Delta == nil {
		return f.lane(q.Vec, q.N, q.Exclude, q.Pred, sc)
	}
	res, stats := f.TopNBatch(BatchQuery{Users: [][]float32{q.Vec}, N: q.N, Exclude: []int32{q.Exclude}, Delta: q.Delta}, sc)
	return res[0], stats[0]
}

// TopN is the unconstrained lane with no partner excluded, in a
// freshly allocated slice.
func (f *FastIndex) TopN(userVec []float32, n int) ([]Result, SearchStats) {
	sc := GetScratch()
	defer PutScratch(sc)
	res, stats := f.Search(Query{Vec: userVec, N: n, Exclude: -1}, sc)
	return slices.Clone(res), stats
}

// affinities is the reference walks' affinity pass: userVec·row for
// every row of one side of the space, from the single-vector kernel
// DotBatch rather than the panel kernel a lane runs.
func (c *CandidateSet) affinities(userVec []float32, partners bool) []float32 {
	rows, data := c.side(partners)
	dst := make([]float32, rows)
	vecmath.DotBatch(userVec, data, c.K, dst)
	return dst
}
