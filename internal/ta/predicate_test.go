package ta

import (
	"testing"
	"testing/quick"

	"ebsn/internal/rng"
	"ebsn/internal/vecmath"
)

// filterThenRankOracle is the exhaustive constrained reference: the
// full canonical ranking of BruteForceTopN, with pairs whose event the
// predicate disallows or whose partner is excluded dropped, truncated to
// n. This is filter-then-rank over the full candidate list — trivially
// exact — and every walk must reproduce it bit for bit, tie ordering
// included.
func filterThenRankOracle(set *CandidateSet, userVec []float32, n int, exclude int32, pred EventPredicate) []Result {
	var out []Result
	for _, r := range set.BruteForceTopN(userVec, len(set.Pairs)) {
		if len(out) >= n {
			break
		}
		if (pred == nil || pred[r.Event]) && r.Partner != exclude {
			out = append(out, r)
		}
	}
	return out
}

// randomPred draws a predicate allowing each event independently with
// probability selectivity.
func randomPred(src *rng.Source, nEvents int, selectivity float64) EventPredicate {
	pred := make(EventPredicate, nEvents)
	for x := range pred {
		pred[x] = src.Float64() < selectivity
	}
	return pred
}

// stridePred allows every stride-th event: selectivity 1/stride.
func stridePred(nEvents, stride int) EventPredicate {
	pred := make(EventPredicate, nEvents)
	for x := range pred {
		pred[x] = x%stride == 0
	}
	return pred
}

// postFilterSearch answers a constrained query the way a caller without
// predicate push-down must: run the unconstrained walk, drop pairs whose
// event pred rejects, and re-walk at four times the depth until n allowed
// pairs surface or the candidate space runs out. The returned stats sum
// the access counts over every walk; the results are written into dst.
func postFilterSearch(f *FastIndex, vec []float32, n int, exclude int32, pred EventPredicate, sc *Scratch, dst []Result) ([]Result, SearchStats) {
	var total SearchStats
	for over := n; ; over *= 4 {
		res, st := f.Search(Query{Vec: vec, N: over, Exclude: exclude}, sc)
		total.SortedAccesses += st.SortedAccesses
		total.RandomAccesses += st.RandomAccesses
		dst = dst[:0]
		for _, r := range res {
			if pred[r.Event] {
				dst = append(dst, r)
				if len(dst) == n {
					return dst, total
				}
			}
		}
		if len(res) < over {
			return dst, total // the candidate space is exhausted
		}
	}
}

// TestPredicatePushDownScoresFewerPairs is the push-down's efficiency
// claim as a count instead of a timing. At event selectivity 25%, 10%
// and 5%, on every query, the predicate walk must score no more pairs
// (RandomAccesses) and pop no more partner bounds (SortedAccesses) than
// postFilterSearch summed over all its re-walks, and the two answers must
// agree bit for bit. Both walks pop partners in the same order (the
// predicate only lowers amax, a constant in every bound), and the
// post-filter's last walk cannot stop before the push-down does.
func TestPredicatePushDownScoresFewerPairs(t *testing.T) {
	shapes := []struct{ nx, nu, topK int }{{400, 600, 30}, {200, 300, 20}}
	sc := GetScratch()
	defer PutScratch(sc)
	for _, sh := range shapes {
		cs := buildSmallSet(t, 31, sh.nx, sh.nu, 60, sh.topK, true)
		f := NewFastIndex(cs)
		queries := randomVecs(rng.New(32), 200, 60, true)
		for _, stride := range []int{4, 10, 20} {
			pred := stridePred(sh.nx, stride)
			var want []Result
			for i, u := range queries {
				ex := int32(i % sh.nu)
				var post SearchStats
				want, post = postFilterSearch(f, u, 10, ex, pred, sc, want)
				got, st := f.Search(Query{Vec: u, N: 10, Exclude: ex, Pred: pred}, sc)
				resultsBitIdentical(t, want, got)
				if st.RandomAccesses > post.RandomAccesses || st.SortedAccesses > post.SortedAccesses {
					t.Fatalf("%dx%d sel=1/%d q=%d: push-down %d pairs / %d bounds, post-filter %d / %d",
						sh.nx, sh.nu, stride, i, st.RandomAccesses, st.SortedAccesses, post.RandomAccesses, post.SortedAccesses)
				}
			}
		}
	}
}

// TestPredicateBitIdenticalToOracle is the push-down exactness property
// test: across random candidate sets, query vectors, result sizes,
// exclusions and filter selectivities (including the degenerate none-
// and all-allowed masks), the predicate walk must return exactly the
// filter-then-rank oracle's results, bit for bit.
func TestPredicateBitIdenticalToOracle(t *testing.T) {
	shapes := []struct {
		nx, nu, k, topK int
	}{
		{25, 15, 6, 0},
		{40, 30, 8, 7},
		{10, 50, 5, 3},
	}
	sc := GetScratch()
	defer PutScratch(sc)
	for seed := uint64(1); seed <= 3; seed++ {
		for _, sh := range shapes {
			cs := buildSmallSet(t, 900+seed, sh.nx, sh.nu, sh.k, sh.topK, true)
			f := NewFastIndex(cs)
			src := rng.New(7000 + seed)
			for _, sel := range []float64{0, 0.1, 0.25, 0.5, 1} {
				pred := randomPred(src, sh.nx, sel)
				u := randomVecs(src, 1, sh.k, true)[0]
				for _, n := range []int{1, 4, 10, sh.nx * sh.nu} {
					for _, exclude := range []int32{-1, int32(src.Uint64() % uint64(sh.nu))} {
						want := filterThenRankOracle(cs, u, n, exclude, pred)
						got, stats := f.TopNExcludingPredScratch(u, n, exclude, pred, sc)
						resultsBitIdentical(t, want, got)
						for _, r := range got {
							if !pred[r.Event] {
								t.Fatalf("sel=%v n=%d: result event %d violates predicate", sel, n, r.Event)
							}
						}
						if stats.RandomAccesses > stats.Candidates {
							t.Fatalf("sel=%v: random accesses %d exceed candidates %d", sel, stats.RandomAccesses, stats.Candidates)
						}
					}
				}
			}
		}
	}
}

// TestPredicateTiesAtFilterBoundary pins tie exactness where it is most
// fragile: duplicated event rows produce exactly tied pair scores, and
// the predicate bans one event of each tied twin — so the surviving twin
// sits precisely at the filter boundary. The walk must keep the allowed
// twin with the oracle's canonical ordering, never the banned one, and
// never drop a tied survivor early via the threshold stop.
func TestPredicateTiesAtFilterBoundary(t *testing.T) {
	src := rng.New(4242)
	k := 6
	cs := twinEventSet(t, src, k)
	f := NewFastIndex(cs)
	sc := GetScratch()
	defer PutScratch(sc)

	// Ban the even twin of each pair: the allowed odd twin ties the
	// banned one's score exactly.
	pred := make(EventPredicate, len(cs.Events))
	for x := range pred {
		pred[x] = x%2 == 1
	}
	for trial := 0; trial < 20; trial++ {
		u := randomVecs(src, 1, k, true)[0]
		for _, n := range []int{1, 5, 12, 40} {
			want := filterThenRankOracle(cs, u, n, -1, pred)
			got, _ := f.TopNExcludingPredScratch(u, n, -1, pred, sc)
			resultsBitIdentical(t, want, got)
			for _, r := range got {
				if r.Event%2 == 0 {
					t.Fatalf("trial=%d n=%d: banned twin event %d surfaced", trial, n, r.Event)
				}
			}
		}
	}
}

// TestNilPredicateBitIdentical pins the bit-identity contract for the
// unrestricted cases: a nil predicate must take the exact unconstrained
// code path, and an all-true predicate must return the same bits as nil
// (the push-down degenerates to the plain walk on identical operands).
func TestNilPredicateBitIdentical(t *testing.T) {
	cs := buildSmallSet(t, 77, 30, 20, 8, 5, true)
	f := NewFastIndex(cs)
	src := rng.New(78)
	sc := GetScratch()
	defer PutScratch(sc)
	allTrue := make(EventPredicate, 30)
	for x := range allTrue {
		allTrue[x] = true
	}
	for trial := 0; trial < 15; trial++ {
		u := randomVecs(src, 1, 8, true)[0]
		for _, n := range []int{1, 7, 25} {
			plain, _ := f.TopNExcludingScratch(u, n, -1, sc)
			want := append([]Result(nil), plain...)
			gotNil, _ := f.TopNExcludingPredScratch(u, n, -1, nil, sc)
			resultsBitIdentical(t, want, gotNil)
			gotAll, _ := f.TopNExcludingPredScratch(u, n, -1, allTrue, sc)
			resultsBitIdentical(t, want, gotAll)
		}
	}
}

// TestPredicateBatch checks the batched predicate path: one shared
// predicate across the batch must return, per user, exactly the bits of
// the sequential constrained query.
func TestPredicateBatch(t *testing.T) {
	cs := buildSmallSet(t, 91, 30, 22, 8, 6, true)
	f := NewFastIndex(cs)
	src := rng.New(92)
	sc := GetScratch()
	defer PutScratch(sc)
	bsc := GetScratch()
	defer PutScratch(bsc)
	users := randomVecs(src, 6, 8, true)
	pred := randomPred(src, 30, 0.25)
	res, _ := f.TopNBatch(BatchQuery{Users: users, N: 8, Pred: pred}, bsc)
	for j, u := range users {
		want, _ := f.TopNExcludingPredScratch(u, 8, -1, pred, sc)
		resultsBitIdentical(t, want, res[j])
	}
}

// TestPredicateSelectivity pins the Selectivity accessor, including the
// nil and empty conventions.
func TestPredicateSelectivity(t *testing.T) {
	if got := EventPredicate(nil).Selectivity(); got != 1 {
		t.Fatalf("nil selectivity = %v, want 1", got)
	}
	if got := (EventPredicate{}).Selectivity(); got != 0 {
		t.Fatalf("empty selectivity = %v, want 0", got)
	}
	if got := (EventPredicate{true, false, true, false}).Selectivity(); got != 0.5 {
		t.Fatalf("selectivity = %v, want 0.5", got)
	}
}

// TestPredicateTightensBound is the push-down efficiency property: the
// constrained walk must terminate no later than the same constrained
// query run with the slack unconstrained bound. The comparison holds the
// result set fixed (both walks answer the constrained query; only the
// amax in the partner bounds differs), which is the actual theorem —
// the constrained walk's access counts are NOT comparable to the
// unconstrained query's, whose result set differs.
func TestPredicateTightensBound(t *testing.T) {
	f := func(seed uint64) bool {
		cs := buildSmallSet(t, seed, 30, 20, 6, 0, true)
		idx := NewFastIndex(cs)
		src := rng.New(seed ^ 0x5eed)
		u := randomVecs(src, 1, 6, true)[0]
		pred := randomPred(src, 30, 0.25)
		sc := GetScratch()
		defer PutScratch(sc)
		_, tight := idx.TopNExcludingPredScratch(u, 10, -1, pred, sc)
		slack := slackBoundConstrainedAccesses(idx, u, 10, pred)
		return tight.SortedAccesses <= slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// slackBoundConstrainedAccesses runs the constrained walk with the
// unconstrained amax in the partner bounds — the push-down minus the
// bound tightening — and returns the sorted accesses it consumes.
func slackBoundConstrainedAccesses(f *FastIndex, userVec []float32, n int, pred EventPredicate) int {
	set := f.set
	a := make([]float32, len(set.Events))
	for x := range set.Events {
		a[x] = vecmath.Dot(userVec, set.Events[x])
	}
	b := make([]float32, len(set.Partners))
	for u := range set.Partners {
		b[u] = vecmath.Dot(userVec, set.Partners[u])
	}
	var amax float32
	for x, v := range a {
		if x == 0 || v > amax {
			amax = v // unconstrained: the slack bound
		}
	}
	var h resultHeap
	sorted := 0
	for _, top := range sortedBounds(f, b, amax) {
		if len(h) == n && h[0].Score > top.bound {
			break
		}
		sorted++
		u := top.u
		for oi := f.partnerStart[u]; oi < f.partnerStart[u+1]; oi++ {
			i := f.order[oi]
			x := set.Pairs[i].Event
			if !pred[x] {
				continue
			}
			r := Result{x, u, a[x] + b[u] + set.Cross[i]}
			if len(h) < n {
				h.push(r)
			} else if r.Outranks(h[0]) {
				h.replaceMin(r)
			}
		}
	}
	return sorted
}
