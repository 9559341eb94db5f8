package ta

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ebsn/internal/rng"
)

// Tie-constructing fixtures, shared by the table below and by the
// single-purpose tests that pin each construction's own property.

// twinEventSet builds a set whose events come in identical pairs: event
// 2j and 2j+1 share a row, so every (event, partner) score ties exactly
// across the twins.
func twinEventSet(t testing.TB, src *rng.Source, k int) *CandidateSet {
	t.Helper()
	events := make([][]float32, 0, 16)
	for _, v := range randomVecs(src, 8, k, true) {
		events = append(events, v, slices.Clone(v))
	}
	cs, err := BuildCandidates(events, randomVecs(src, 12, k, true), BuildConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// dupRowSet builds a set with events 0–3 identical and partners 0–2
// identical, so distinct pairs score exactly equal on both sides.
func dupRowSet(t testing.TB, src *rng.Source, k int) *CandidateSet {
	t.Helper()
	events := randomVecs(src, 12, k, true)
	partners := randomVecs(src, 10, k, true)
	for i := 1; i <= 3; i++ {
		copy(events[i], events[0])
	}
	for u := 1; u <= 2; u++ {
		copy(partners[u], partners[0])
	}
	cs, err := BuildCandidates(events, partners, BuildConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// tieTwoTier builds a two-tier index whose delta holds random arrivals
// plus exact duplicates — of a base event (tie across the tier
// boundary), of each other (tie inside the delta), and of the first
// delta arrival.
func tieTwoTier(t testing.TB, src *rng.Source, topK int) *twoTier {
	t.Helper()
	events := randomVecs(src, 25, 6, true)
	cs, err := BuildCandidates(events, randomVecs(src, 12, 6, true), BuildConfig{TopKEvents: topK, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dyn := newTwoTier(cs, topK)
	added := randomVecs(src, 3, 6, true)
	added = append(added, slices.Clone(events[4]), slices.Clone(events[4]), slices.Clone(added[0]))
	for _, v := range added {
		if err := dyn.AddEvent(v); err != nil {
			t.Fatal(err)
		}
	}
	return dyn
}

// sameResults reports whether a and b are == on (event, partner, score
// bits), rank by rank.
func sameResults(a, b []Result) bool {
	return slices.EqualFunc(a, b, func(x, y Result) bool {
		return x.Event == y.Event && x.Partner == y.Partner && math.Float32bits(x.Score) == math.Float32bits(y.Score)
	})
}

// TestSearchQueryTable crosses every Query field with every way a query
// can ride the walk: Pred ∈ {nil, all-true, ~25% selective,
// none-allowed} × Quantized × {single Search, a lane of a 1/3/16-wide
// TopNBatch with the event panel computed or precomputed}, over a random
// pruned set and the three tie constructions (the last one folded, so
// its delta pairs sit out of order in the pair list). All lanes answering
// one query must be == on (event, partner, score bits). Exact lanes must
// also equal the filter-then-rank oracle bit for bit and agree with
// filter-then-BruteForceTopN within the float tolerance its different
// summation order needs; nil and all-true must coincide. Quantized lanes
// must keep recall@10 ≥ 0.99 against the exact answer.
func TestSearchQueryTable(t *testing.T) {
	src := rng.New(2024)
	folded := tieTwoTier(t, src, 5)
	folded.Rebuild()
	fixtures := []struct {
		name string
		set  *CandidateSet
	}{
		{"random-pruned", buildSmallSet(t, 31, 40, 30, 8, 7, true)},
		{"twin-events", twinEventSet(t, src, 6)},
		{"dup-rows", dupRowSet(t, src, 6)},
		{"folded-ties", folded.set},
	}
	const nq, n = 16, 10
	sc := GetScratch()
	defer PutScratch(sc)
	bsc, pbsc := GetBatchScratch(), GetBatchScratch()
	defer PutBatchScratch(bsc)
	defer PutBatchScratch(pbsc)

	for _, fx := range fixtures {
		set := fx.set
		f := NewFastIndex(set)
		set.PackQuantized()
		nx, k := len(set.Events), set.K
		allTrue := make(EventPredicate, nx)
		quarter := make(EventPredicate, nx)
		for x := range allTrue {
			allTrue[x] = true
			// The odd twin of every other pair: bans one event of a tied
			// twin wherever the fixture has twins.
			quarter[x] = x%4 == 1
		}
		preds := []struct {
			name string
			pred EventPredicate
		}{{"nil", nil}, {"all-true", allTrue}, {"quarter", quarter}, {"none", make(EventPredicate, nx)}}

		users := randomVecs(src, nq, k, true)
		exclude := make([]int32, nq)
		for j := range exclude {
			exclude[j] = int32(src.Intn(len(set.Partners)+2)) - 1
		}
		exactNil := make([][]Result, nq) // the "nil" row's exact answers
		for _, pr := range preds {
			var hits, total int
			exact := make([][]Result, nq)
			for _, quantized := range []bool{false, true} {
				row := fmt.Sprintf("%s/pred=%s/quantized=%v", fx.name, pr.name, quantized)
				// Lane 0 of every query: the plain single Search.
				ref := make([][]Result, nq)
				for j, u := range users {
					res, stats := f.Search(Query{Vec: u, N: n, Exclude: exclude[j], Pred: pr.pred, Quantized: quantized}, sc)
					ref[j] = slices.Clone(res)
					if stats.RandomAccesses > stats.Candidates {
						t.Fatalf("%s q=%d: %d random accesses over %d candidates", row, j, stats.RandomAccesses, stats.Candidates)
					}
				}
				for _, width := range []int{1, 3, 16} {
					for lo := 0; lo+width <= nq; lo += width {
						bq := BatchQuery{Users: users[lo : lo+width], N: n, Exclude: exclude[lo : lo+width], Pred: pr.pred, Quantized: quantized}
						for _, pre := range []bool{false, true} {
							if pre {
								bq.EventAff = set.EventAffinityPanel(bq.Users, quantized, pbsc)
							}
							res, _ := f.TopNBatch(bq, bsc)
							for j := range res {
								if !sameResults(ref[lo+j], res[j]) {
									t.Fatalf("%s q=%d: lane %d of a %d-wide batch (precomputed=%v) diverges:\n got %v\nwant %v",
										row, lo+j, j, width, pre, res[j], ref[lo+j])
								}
							}
						}
					}
				}

				for j, u := range users {
					for _, r := range ref[j] {
						if (pr.pred != nil && !pr.pred[r.Event]) || r.Partner == exclude[j] {
							t.Fatalf("%s q=%d: result %+v violates the predicate or the exclusion", row, j, r)
						}
					}
					if quantized {
						for _, r := range ref[j] {
							if slices.ContainsFunc(exact[j], func(e Result) bool { return e == r }) {
								hits++
							}
						}
						total += len(exact[j])
						continue
					}
					exact[j] = ref[j]
					if want := filterThenRankOracle(set, u, n, exclude[j], pr.pred); !sameResults(want, ref[j]) {
						t.Fatalf("%s q=%d: got %v, oracle %v", row, j, ref[j], want)
					}
					var brute []Result
					for _, r := range set.BruteForceTopN(u, len(set.Pairs)) {
						if (pr.pred == nil || pr.pred[r.Event]) && r.Partner != exclude[j] && len(brute) < n {
							brute = append(brute, r)
						}
					}
					if len(brute) != len(ref[j]) {
						t.Fatalf("%s q=%d: %d results, brute force %d", row, j, len(ref[j]), len(brute))
					}
					for i := range brute {
						if !approxEqual(brute[i].Score, ref[j][i].Score) {
							t.Fatalf("%s q=%d rank %d: score %v, brute force %v", row, j, i, ref[j][i].Score, brute[i].Score)
						}
					}
					switch pr.name {
					case "nil":
						exactNil[j] = ref[j]
					case "all-true":
						if !sameResults(exactNil[j], ref[j]) {
							t.Fatalf("%s q=%d: all-true predicate diverges from nil", row, j)
						}
					case "none":
						if len(ref[j]) != 0 {
							t.Fatalf("%s q=%d: none-allowed predicate returned %v", row, j, ref[j])
						}
					}
				}
			}
			if total > 0 && float64(hits) < 0.99*float64(total) {
				t.Errorf("%s/pred=%s: quantized recall@%d = %d/%d, want ≥ 0.99", fx.name, pr.name, n, hits, total)
			}
		}
	}
}
