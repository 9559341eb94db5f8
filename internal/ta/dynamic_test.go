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
// engine: a main index, the delta beside it, Search + MergeTopN to
// answer, FoldDelta + Advance to compact.
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

// TopNExcluding answers over both tiers; the results alias sc.
func (d *twoTier) TopNExcluding(userVec []float32, n int, exclude int32, sc *Scratch) ([]DynamicResult, SearchStats) {
	base, stats := d.idx.Search(Query{Vec: userVec, N: n, Exclude: exclude}, sc)
	merged := d.delta.MergeTopN(base, len(d.set.Events), userVec, n, exclude, sc, &stats)
	return merged, stats
}

// TopN is TopNExcluding with no exclusion, in a caller-owned slice.
func (d *twoTier) TopN(userVec []float32, n int) ([]DynamicResult, SearchStats) {
	sc := GetScratch()
	defer PutScratch(sc)
	res, stats := d.TopNExcluding(userVec, n, -1, sc)
	return append([]DynamicResult(nil), res...), stats
}

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
		if static[i] != dynamic[i].Result {
			t.Fatalf("rank %d: %+v vs %+v", i, static[i], dynamic[i].Result)
		}
		if dynamic[i].FromDelta {
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
	if !res[0].FromDelta {
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
		if after[i].FromDelta {
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
