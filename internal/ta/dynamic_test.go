package ta

import (
	"math"
	"slices"
	"testing"

	"ebsn/internal/rng"
	"ebsn/internal/vecmath"
)

// twoTier is the live-serving composition under test, built from the
// package's own primitives the way the facade composes them over an
// engine: a main index, the delta beside it, a lane that scans the delta
// to answer, FoldDelta + Advance to compact.
type twoTier struct {
	set   *CandidateSet
	idx   *FastIndex
	delta *Delta
}

func newTwoTier(set *CandidateSet, topK int) *twoTier {
	idx := NewFastIndex(set) // packs the set; the delta shares its rows
	return &twoTier{set: set, idx: idx, delta: NewDeltaForSet(set, topK)}
}

func (d *twoTier) AddEvent(vec []float32) error { return d.delta.AddEvent(vec) }
func (d *twoTier) DeltaSize() int               { return d.delta.PairCount() }
func (d *twoTier) NumEvents() int               { return len(d.set.Events) + d.delta.Events() }

// TopNExcluding answers over both tiers with one lane; delta events
// come back numbered len(set.Events)+position. The results alias sc.
func (d *twoTier) TopNExcluding(userVec []float32, n int, exclude int32, sc *Scratch) ([]Result, SearchStats) {
	return d.idx.Search(Query{Vec: userVec, N: n, Exclude: exclude, Delta: d.delta}, sc)
}

// TopN is TopNExcluding with no exclusion, in a caller-owned slice.
func (d *twoTier) TopN(userVec []float32, n int) ([]Result, SearchStats) {
	sc := GetScratch()
	defer PutScratch(sc)
	res, stats := d.TopNExcluding(userVec, n, -1, sc)
	return slices.Clone(res), stats
}

// fromDelta reports whether r names a delta event rather than a main
// tier one.
func (d *twoTier) fromDelta(r Result) bool { return int(r.Event) >= len(d.set.Events) }

// Rebuild folds the whole delta into a fresh main tier.
func (d *twoTier) Rebuild() {
	v := d.delta.View()
	if len(v.Events) == 0 {
		return
	}
	d.set, d.idx = FoldDelta(d.set, v, 0)
	d.delta.Advance(v)
}

// TestDynamicMatchesStaticBeforeAdds checks that a two-tier index with
// an empty delta answers exactly what brute force over the base does:
// the same pairs, in the same order, with the same score bits.
func TestDynamicMatchesStaticBeforeAdds(t *testing.T) {
	cs := buildSmallSet(t, 41, 30, 20, 6, 0, true)
	dyn := newTwoTier(cs, 0)
	src := rng.New(42)
	u := randomVecs(src, 1, 6, true)[0]
	static := cs.BruteForceTopN(u, 8)
	dynamic, _ := dyn.TopN(u, 8)
	if len(static) != len(dynamic) {
		t.Fatalf("result counts differ: %d vs %d", len(static), len(dynamic))
	}
	for i := range static {
		if static[i] != dynamic[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, static[i], dynamic[i])
		}
		if dyn.fromDelta(dynamic[i]) {
			t.Fatal("phantom delta result")
		}
	}
}

func TestDynamicAddEventSurfacesInResults(t *testing.T) {
	cs := buildSmallSet(t, 43, 20, 15, 6, 0, false)
	dyn := newTwoTier(cs, 0)
	src := rng.New(44)
	u := randomVecs(src, 1, 6, false)[0]

	// An event vector aligned with the query dominates every base score.
	super := make([]float32, 6)
	for f := range super {
		super[f] = u[f] * 10
	}
	if err := dyn.AddEvent(super); err != nil {
		t.Fatal(err)
	}
	if dyn.DeltaSize() != 15 { // one pair per partner, unpruned
		t.Fatalf("delta size %d, want 15", dyn.DeltaSize())
	}
	res, stats := dyn.TopN(u, 3)
	if !dyn.fromDelta(res[0]) {
		t.Fatal("dominant delta event not ranked first")
	}
	if stats.Candidates != len(cs.Pairs)+15 {
		t.Errorf("stats.Candidates = %d", stats.Candidates)
	}
}

func TestDynamicTopKPruning(t *testing.T) {
	cs := buildSmallSet(t, 45, 20, 12, 6, 0, true)
	dyn := newTwoTier(cs, 4)
	src := rng.New(46)
	vec := randomVecs(src, 1, 6, true)[0]
	if err := dyn.AddEvent(vec); err != nil {
		t.Fatal(err)
	}
	if dyn.DeltaSize() != 4 {
		t.Fatalf("pruned delta size %d, want 4", dyn.DeltaSize())
	}
	// The 4 chosen partners must be the top-4 by u'·x.
	best := map[int32]bool{}
	type us struct {
		u int32
		s float32
	}
	var all []us
	for i, p := range cs.Partners {
		all = append(all, us{int32(i), vecmath.Dot(vec, p)})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].s > all[i].s {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	for _, e := range all[:4] {
		best[e.u] = true
	}
	for _, pair := range dyn.delta.pairs {
		if !best[pair.Partner] {
			t.Fatalf("partner %d not in true top-4", pair.Partner)
		}
	}
}

func TestDynamicRebuildFoldsDelta(t *testing.T) {
	cs := buildSmallSet(t, 47, 15, 10, 4, 0, true)
	dyn := newTwoTier(cs, 0)
	src := rng.New(48)
	u := randomVecs(src, 1, 4, true)[0]
	added := randomVecs(src, 3, 4, true)
	for _, v := range added {
		if err := dyn.AddEvent(v); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := dyn.TopN(u, 10)
	baseEvents := len(cs.Events) - 0
	dyn.Rebuild()
	if dyn.DeltaSize() != 0 {
		t.Fatal("delta not cleared by rebuild")
	}
	if dyn.NumEvents() != baseEvents+3 {
		t.Fatalf("NumEvents = %d", dyn.NumEvents())
	}
	after, _ := dyn.TopN(u, 10)
	if len(before) != len(after) {
		t.Fatalf("result counts changed across rebuild")
	}
	for i := range before {
		if before[i].Score != after[i].Score {
			t.Fatalf("rank %d score changed across rebuild: %v vs %v", i, before[i].Score, after[i].Score)
		}
		if dyn.fromDelta(after[i]) {
			t.Fatal("rebuilt result still tagged as delta")
		}
	}
	// Rebuild with empty delta is a no-op.
	dyn.Rebuild()
}

func TestAddEventCopiesCallerVector(t *testing.T) {
	// Regression: AddEvent used to retain the caller's slice, so later
	// mutation silently corrupted delta scoring and the post-Rebuild
	// candidate set.
	cs := buildSmallSet(t, 61, 20, 15, 6, 0, false)
	dyn := newTwoTier(cs, 0)
	src := rng.New(62)
	u := randomVecs(src, 1, 6, false)[0]

	vec := make([]float32, 6)
	for f := range vec {
		vec[f] = u[f] * 10
	}
	if err := dyn.AddEvent(vec); err != nil {
		t.Fatal(err)
	}
	before, _ := dyn.TopN(u, 5)

	// The caller trashes its slice after the call.
	for f := range vec {
		vec[f] = -1e9
	}

	after, _ := dyn.TopN(u, 5)
	for i := range before {
		if before[i].Score != after[i].Score {
			t.Fatalf("rank %d: delta scoring changed after caller mutated its slice: %v vs %v",
				i, before[i].Score, after[i].Score)
		}
	}

	// Rebuild must fold the original vector, not the mutated one.
	dyn.Rebuild()
	rebuilt, _ := dyn.TopN(u, 5)
	for i := range before {
		if before[i].Score != rebuilt[i].Score {
			t.Fatalf("rank %d: rebuilt index reflects caller's mutation: %v vs %v",
				i, before[i].Score, rebuilt[i].Score)
		}
	}
}

func TestDynamicRejectsBadVector(t *testing.T) {
	cs := buildSmallSet(t, 49, 10, 5, 4, 0, true)
	dyn := newTwoTier(cs, 0)
	if err := dyn.AddEvent([]float32{1, 2}); err == nil {
		t.Fatal("wrong-length vector accepted")
	}
}

// TestAddEventsMatchesSequential pins batched ingest to sequential
// ingest: for every batch size 1…17 (across the 4-lane panel's
// remainders), pruned and unpruned, one AddEvents call must leave the
// same events, the same pairs and bit-identical cross terms as that
// many AddEvent calls — also after an Advance drops the previous batch
// and rebases the pairs.
func TestAddEventsMatchesSequential(t *testing.T) {
	const k = 13
	src := rng.New(71)
	partners := randomVecs(src, 100, k, true)
	for _, topK := range []int{0, 30} {
		seq, err := NewDelta(partners, topK)
		if err != nil {
			t.Fatal(err)
		}
		bat, err := NewDelta(partners, topK)
		if err != nil {
			t.Fatal(err)
		}
		same := func(stage string, b int) {
			t.Helper()
			if seq.Events() != bat.Events() || len(seq.pairs) != len(bat.pairs) || len(seq.cross) != len(bat.cross) {
				t.Fatalf("topK=%d b=%d %s: batched has %d events / %d pairs, sequential %d / %d",
					topK, b, stage, bat.Events(), len(bat.pairs), seq.Events(), len(seq.pairs))
			}
			for i := range seq.events {
				if !slices.Equal(seq.events[i], bat.events[i]) {
					t.Fatalf("topK=%d b=%d %s: event %d vector differs", topK, b, stage, i)
				}
			}
			for i := range seq.pairs {
				if seq.pairs[i] != bat.pairs[i] || math.Float32bits(seq.cross[i]) != math.Float32bits(bat.cross[i]) {
					t.Fatalf("topK=%d b=%d %s: pair %d batched %v/%v, sequential %v/%v",
						topK, b, stage, i, bat.pairs[i], bat.cross[i], seq.pairs[i], seq.cross[i])
				}
			}
		}
		for b := 1; b <= 17; b++ {
			vecs := randomVecs(src, b, k, true)
			seqView, batView := seq.View(), bat.View()
			for _, v := range vecs {
				if err := seq.AddEvent(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := bat.AddEvents(vecs); err != nil {
				t.Fatal(err)
			}
			same("after add", b)
			seq.Advance(seqView)
			bat.Advance(batView)
			same("after advance", b)
		}
		// A bad vector anywhere rejects the whole batch.
		before := bat.Events()
		if err := bat.AddEvents([][]float32{randomVecs(src, 1, k, true)[0], {1, 2}}); err == nil {
			t.Fatal("batch with a wrong-length vector accepted")
		}
		if bat.Events() != before {
			t.Fatalf("rejected batch added %d events", bat.Events()-before)
		}
	}
}

// TestDeltaScanAdmitsTieAtBound pins the delta scan's skip test to the
// walk's strict rule. In integer-valued K=2 vectors (exact arithmetic)
// partners 0 and 2 are twins, and partner 0 has no base pairs. The base's
// best pair (event 0, partner 2) scores 3 for u = (1, 0). The one delta
// event copies event 0, so its pair with partner 0 scores 3 too, and so
// does partner 0's bound: the pair ties the n-th score exactly, and its
// smaller partner ID must win the tie. A scan that skipped a partner
// whose bound merely equals the weakest retained score would answer
// (0, 2).
func TestDeltaScanAdmitsTieAtBound(t *testing.T) {
	cs := &CandidateSet{
		K:        2,
		Events:   [][]float32{{1, 0}, {0, 1}},
		Partners: [][]float32{{1, 0}, {0, 1}, {1, 0}},
	}
	for u := int32(1); u <= 2; u++ {
		for x := int32(0); x < 2; x++ {
			cs.Pairs = append(cs.Pairs, Candidate{Event: x, Partner: u})
			cs.Cross = append(cs.Cross, vecmath.Dot(cs.Events[x], cs.Partners[u]))
		}
	}
	dyn := newTwoTier(cs, 0)
	if err := dyn.AddEvent([]float32{1, 0}); err != nil {
		t.Fatal(err)
	}
	u := []float32{1, 0}
	if base, _ := dyn.idx.TopN(u, 1); len(base) != 1 || base[0] != (Result{0, 2, 3}) {
		t.Fatalf("base top 1 = %+v, want event 0 with partner 2 at 3", base)
	}
	got, _ := dyn.TopN(u, 1)
	if want := (Result{2, 0, 3}); len(got) != 1 || got[0] != want {
		t.Fatalf("live top 1 = %+v, want the tied delta pair %+v", got, want)
	}
	folded, _ := FoldDelta(cs, dyn.delta.View(), 1)
	for _, n := range []int{1, 2, 3, 9} {
		got, _ := dyn.TopN(u, n)
		if want := filterThenRankOracle(folded, u, n, -1, nil); !sameResults(got, want) {
			t.Fatalf("n=%d: got %+v, want %+v", n, got, want)
		}
	}
}

// TestDeltaTieAtBoundUnderPredicate is a crafted tie at a delta slot's
// bound under a predicate. All values are small integers, so every dot
// product and sum is exact. The user is (1,0,0); the base has one event
// E0 = (1,0,1) and partners p0 = (0,0,−1), p1 = (0,0,1), so its top 1
// is (E0, p1) at 1 + 0 + 1 = 2. The delta's D0 = (2,0,0) is allowed and
// D1 = (3,0,0), with the larger a(x), is refused. Partner p0's slot
// bound is then (amax 2 + b 0) + maxCross 0 = 2, exactly the score of
// (D0, p0), which outranks (E0, p1) on the partner tie-break, so the
// pair must enter the answer: a ≥ skip test drops it. The tie exists
// only because amax ranges over the allowed delta events; over every
// delta event the bound would be 3.
func TestDeltaTieAtBoundUnderPredicate(t *testing.T) {
	set, err := BuildCandidates([][]float32{{1, 0, 1}}, [][]float32{{0, 0, -1}, {0, 0, 1}}, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tt := newTwoTier(set, 0)
	if err := tt.delta.AddEvents([][]float32{{2, 0, 0}, {3, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	sc := GetScratch()
	defer PutScratch(sc)
	pred := EventPredicate{true, true, false} // E0, D0 allowed; D1 refused
	res, stats := tt.idx.TopNBatch(BatchQuery{Users: [][]float32{{1, 0, 0}}, N: 1, Pred: pred, Delta: tt.delta}, sc)
	want := Result{Event: 1, Partner: 0, Score: 2} // (D0, p0)
	if len(res[0]) != 1 || res[0][0] != want {
		t.Fatalf("top 1 = %+v, want [%+v]", res[0], want)
	}
	// The walk scores (E0, p1) and stops before p0, whose bound is 0;
	// the scan scores (D0, p0) and (D0, p1), which ties p1's bound, and
	// never a pair of the refused D1.
	if stats[0].RandomAccesses != 3 {
		t.Fatalf("%d random accesses, want 1 base + 2 allowed delta pairs", stats[0].RandomAccesses)
	}
}
