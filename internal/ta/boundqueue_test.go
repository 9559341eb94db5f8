package ta

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ebsn/internal/rng"
)

// TestBoundQueuePopsCanonically drains boundQueues across block-boundary
// sizes (one partner, one block short, one block, one over, two and a
// bit, and the benchmark city's 11 890 partners) filled with tie-heavy
// bounds — sums of small integers, exact and only 15 distinct values, so
// almost every bound is tied — and about one partner in eight without
// pairs (maxCross −Inf). The pops must come out sorted by (bound desc,
// partner asc), each pop must return the bound top showed before it, and
// no partner without pairs may ever be popped. Each queue is filled
// twice so the second fill runs over the first one's −Inf marks.
func TestBoundQueuePopsCanonically(t *testing.T) {
	src := rng.New(3907)
	var q boundQueue
	for _, nu := range []int{1, 63, 64, 65, 129, 11890} {
		for fill := 0; fill < 2; fill++ {
			name := fmt.Sprintf("|U|=%d/fill=%d", nu, fill)
			b := make([]float32, nu)
			maxCross := make([]float32, nu)
			for u := range b {
				b[u] = float32(src.Intn(12))
				maxCross[u] = float32(src.Intn(4))
				if src.Intn(8) == 0 {
					maxCross[u] = negInf
				}
			}
			const amax = 0.5
			var want []boundEntry
			for u := range b {
				if !math.IsInf(float64(maxCross[u]), -1) {
					want = append(want, boundEntry{b[u] + amax + maxCross[u], int32(u)})
				}
			}
			sortCanonical(want)

			q.fill(b, amax, maxCross)
			var got []boundEntry
			for len(got) <= nu {
				top := q.top()
				if top.bound == negInf {
					break
				}
				p := q.pop()
				if p != top {
					t.Fatalf("%s pop %d: top showed %+v, pop returned %+v", name, len(got), top, p)
				}
				if math.IsInf(float64(maxCross[p.u]), -1) {
					t.Fatalf("%s pop %d: popped partner %d, which has no pairs", name, len(got), p.u)
				}
				got = append(got, p)
			}
			if len(got) > nu {
				t.Fatalf("%s: %d pops from %d partners", name, len(got), nu)
			}
			if !slices.Equal(got, want) {
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Fatalf("%s: pop %d is %+v, want %+v (%d pops, want %d)", name, i, got[i], want[i], len(got), len(want))
					}
				}
				t.Fatalf("%s: %d pops, want %d", name, len(got), len(want))
			}
		}
	}
}

// referenceWalk is a lane with the bound queue replaced by a full
// canonical sort of every bound (sortedBounds) and the same strict stop:
// it scores partners in that order until the weakest of the top n beats
// the next bound, and returns the canonical top n with the access counts
// and the partners popped, in order.
func referenceWalk(f *FastIndex, q Query) ([]Result, SearchStats, []int32) {
	set := f.set
	stats := SearchStats{Candidates: len(set.Pairs)}
	a := set.affinities(q.Vec, eventSide)
	b := set.affinities(q.Vec, partnerSide)
	var amax float32
	allowed := false
	for x, v := range a {
		if (q.Pred == nil || q.Pred[x]) && (!allowed || v > amax) {
			amax, allowed = v, true
		}
	}
	if !allowed {
		return nil, stats, nil
	}
	n := min(q.N, len(set.Pairs))
	canonical := func(x, y Result) int {
		switch {
		case x.Outranks(y):
			return -1
		case y.Outranks(x):
			return 1
		}
		return 0
	}
	var res []Result // canonical order, best first
	var popped []int32
	for _, top := range sortedBounds(f, b, amax) {
		if len(res) == n && res[n-1].Score > top.bound {
			break
		}
		popped = append(popped, top.u)
		stats.SortedAccesses++
		if top.u == q.Exclude {
			continue
		}
		u := top.u
		for oi := f.partnerStart[u]; oi < f.partnerStart[u+1]; oi++ {
			i := f.order[oi]
			x := set.Pairs[i].Event
			if q.Pred != nil && !q.Pred[x] {
				continue
			}
			stats.RandomAccesses++
			r := Result{x, u, a[x] + b[u] + set.Cross[i]}
			at, _ := slices.BinarySearchFunc(res, r, canonical)
			res = slices.Insert(res, at, r)
			if len(res) > n {
				res = res[:n]
			}
		}
	}
	return res, stats, popped
}

// TestSearchMatchesReferenceWalk checks Search against referenceWalk on
// the tie fixtures — in results and in both access counts — under
// Pred ∈ {nil, ~25%} × Exclude ∈ {none, the first
// partner the unexcluded walk pops}. Equal counts mean the queue pops
// exactly the canonical prefix the full sort yields, ties included.
func TestSearchMatchesReferenceWalk(t *testing.T) {
	src := rng.New(3911)
	folded := tieTwoTier(t, src, 5)
	folded.Rebuild()
	tieSet, _ := buildTieSet(t, 43, 90, 150, 8, 9)
	fixtures := []struct {
		name string
		set  *CandidateSet
	}{
		{"twin-events", twinEventSet(t, src, 6)},
		{"dup-rows", dupRowSet(t, src, 6)},
		{"folded-ties", folded.set},
		{"tie-set", tieSet},
	}
	sc := GetScratch()
	defer PutScratch(sc)
	for _, fx := range fixtures {
		set := fx.set
		f := NewFastIndex(set)
		quarter := randomPred(src, len(set.Events), 0.25)
		users := randomVecs(src, 12, set.K, true)
		for _, pr := range []struct {
			name string
			pred EventPredicate
		}{{"nil", nil}, {"quarter", quarter}} {
			for j, u := range users {
				n := 1 + j%10
				q := Query{Vec: u, N: n, Exclude: -1, Pred: pr.pred}
				_, _, popped := referenceWalk(f, q)
				excludes := []int32{-1}
				if len(popped) > 0 {
					excludes = append(excludes, popped[0])
				}
				for _, ex := range excludes {
					q.Exclude = ex
					row := fmt.Sprintf("%s/pred=%s/q=%d/exclude=%d", fx.name, pr.name, j, ex)
					want, wantStats, _ := referenceWalk(f, q)
					got, gotStats := f.Search(q, sc)
					if !sameResults(want, got) {
						t.Fatalf("%s: got %v, reference %v", row, got, want)
					}
					if gotStats.SortedAccesses != wantStats.SortedAccesses || gotStats.RandomAccesses != wantStats.RandomAccesses {
						t.Fatalf("%s: sorted/random accesses %d/%d, reference %d/%d", row,
							gotStats.SortedAccesses, gotStats.RandomAccesses, wantStats.SortedAccesses, wantStats.RandomAccesses)
					}
				}
			}
		}
	}
}
