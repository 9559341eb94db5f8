package ta

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ebsn/internal/rng"
)

// TestDynamicMergeMatchesOracleWithTies is the live-path property test:
// the two-tier answer (a lane whose walk over the main index is followed
// by its delta scan) must be bit-identical — pairs, tie order, and score bits —
// to a brute-force scan of the folded candidate set, under deliberately
// constructed exact ties (duplicated event vectors inside the delta and
// across the delta/main boundary).
func TestDynamicMergeMatchesOracleWithTies(t *testing.T) {
	src := rng.New(881)
	sc := GetScratch()
	defer PutScratch(sc)
	for _, topK := range []int{0, 5} {
		dyn := tieTwoTier(t, src, topK)
		cs := dyn.set

		// The oracle ranks the folded space; FoldDelta appends delta
		// events at baseEvents+i, the same effective index the lane's
		// delta scan ranks them under.
		folded, _ := FoldDelta(cs, dyn.delta.View(), 2)

		for q := 0; q < 25; q++ {
			userVec := randomVecs(src, 1, 6, true)[0]
			n := []int{1, 5, 17, len(folded.Pairs) + 5}[q%4]
			exclude := int32(src.Intn(len(cs.Partners)+2)) - 1
			want := filterThenRankOracle(folded, userVec, n, exclude, nil)
			got, _ := dyn.TopNExcluding(userVec, n, exclude, sc)
			if len(got) != len(want) {
				t.Fatalf("topK=%d q=%d: %d results, want %d", topK, q, len(got), len(want))
			}
			for i := range want {
				if got[i].Event != want[i].Event || got[i].Partner != want[i].Partner {
					t.Fatalf("topK=%d q=%d rank %d: got pair (%d,%d) delta=%v, want (%d,%d)",
						topK, q, i, got[i].Event, got[i].Partner, dyn.fromDelta(got[i]), want[i].Event, want[i].Partner)
				}
				if math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
					t.Fatalf("topK=%d q=%d rank %d score bits: got %v, want %v",
						topK, q, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

// TestBackgroundCompactionBitIdenticalToRebuild runs the same arrivals
// through the synchronous Rebuild and through the background
// View/FoldDelta/Advance protocol — with queries and further ingests
// landing while the fold runs — and requires the resulting main tiers to
// be bit-identical: set contents, index layout, and query answers.
func TestBackgroundCompactionBitIdenticalToRebuild(t *testing.T) {
	sync1 := buildSmallSet(t, 71, 40, 25, 8, 6, true)
	back1 := buildSmallSet(t, 71, 40, 25, 8, 6, true)
	syncDyn := newTwoTier(sync1, 6)
	backDyn := newTwoTier(back1, 6)

	src := rng.New(72)
	added := randomVecs(src, 9, 8, true)
	late := randomVecs(src, 2, 8, true)
	queries := randomVecs(src, 6, 8, true)
	for _, v := range added {
		if err := syncDyn.AddEvent(v); err != nil {
			t.Fatal(err)
		}
		if err := backDyn.AddEvent(v); err != nil {
			t.Fatal(err)
		}
	}

	// Synchronous path: fold everything, then the late arrivals land in
	// the fresh delta.
	syncDyn.Rebuild()
	for _, v := range late {
		if err := syncDyn.AddEvent(v); err != nil {
			t.Fatal(err)
		}
	}

	// Background path: capture, then fold on another goroutine while
	// queries read the old tiers and the late arrivals are ingested.
	view := backDyn.delta.View()
	if len(view.Events) != len(added) {
		t.Fatalf("view captured %d events, want %d", len(view.Events), len(added))
	}
	var foldedSet *CandidateSet
	var foldedIdx *FastIndex
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		foldedSet, foldedIdx = FoldDelta(backDyn.set, view, 3)
	}()
	for _, v := range late {
		if err := backDyn.AddEvent(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range queries {
		if res, _ := backDyn.TopN(u, 10); len(res) == 0 {
			t.Fatal("query against old tiers returned nothing mid-fold")
		}
	}
	<-ran
	backDyn.set, backDyn.idx = foldedSet, foldedIdx
	backDyn.delta.Advance(view)

	// Late arrivals must have survived the install as residual delta.
	if got := backDyn.delta.Events(); got != len(late) {
		t.Fatalf("residual delta events = %d, want %d", got, len(late))
	}

	// Main tiers: bit-identical sets and index layouts.
	a, b := syncDyn.set, backDyn.set
	if !slices.EqualFunc(a.Events, b.Events, slices.Equal) {
		t.Fatal("folded event rows differ")
	}
	if !slices.EqualFunc(a.Partners, b.Partners, slices.Equal) {
		t.Fatal("folded partner rows differ")
	}
	if !slices.Equal(a.Pairs, b.Pairs) {
		t.Fatal("folded pairs differ")
	}
	if !slices.Equal(a.Cross, b.Cross) {
		t.Fatal("folded cross terms differ")
	}
	ai, bi := syncDyn.idx, backDyn.idx
	if !slices.Equal(ai.order, bi.order) || !slices.Equal(ai.partnerStart, bi.partnerStart) {
		t.Fatal("index layouts differ")
	}
	if !slices.Equal(ai.maxCross, bi.maxCross) {
		t.Fatal("index bounds differ")
	}

	// And the merged live answers agree, residual delta included.
	sc, sc2 := GetScratch(), GetScratch()
	defer PutScratch(sc)
	defer PutScratch(sc2)
	for _, u := range queries {
		want, _ := syncDyn.TopNExcluding(u, 12, 3, sc)
		got, _ := backDyn.TopNExcluding(u, 12, 3, sc2)
		if !slices.Equal(want, got) {
			t.Fatalf("post-install answers diverge:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestDynamicConcurrentIngestQueryCompact exercises the documented
// locking pattern — queries and View under RLock, AddEvent/Advance
// under Lock, FoldDelta with no lock — under -race: four query workers,
// one ingester, and a compaction loop folding whatever has accumulated.
func TestDynamicConcurrentIngestQueryCompact(t *testing.T) {
	const adds = 250
	cs := buildSmallSet(t, 73, 30, 20, 6, 5, true)
	dyn := newTwoTier(cs, 5)

	var mu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			src := rng.New(seed)
			sc := GetScratch()
			defer PutScratch(sc)
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := randomVecs(src, 1, 6, true)[0]
				mu.RLock()
				res, _ := dyn.TopNExcluding(u, 8, int32(src.Intn(20)), sc)
				if len(res) == 0 {
					mu.RUnlock()
					t.Error("query returned nothing")
					return
				}
				mu.RUnlock()
			}
		}(100 + uint64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		src := rng.New(200)
		for i := 0; i < adds; i++ {
			v := randomVecs(src, 1, 6, true)[0]
			mu.Lock()
			err := dyn.AddEvent(v)
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.RLock()
			base, view := dyn.set, dyn.delta.View()
			mu.RUnlock()
			if len(view.Events) == 0 {
				runtime.Gosched()
				continue
			}
			set, idx := FoldDelta(base, view, 2)
			mu.Lock()
			dyn.set, dyn.idx = set, idx
			dyn.delta.Advance(view)
			mu.Unlock()
		}
	}()
	wg.Wait()

	// Whatever the compaction loop left behind folds cleanly, and no
	// arrival was lost or double-counted along the way.
	dyn.Rebuild()
	if got := dyn.NumEvents(); got != 30+adds {
		t.Fatalf("NumEvents = %d after concurrent run, want %d", got, 30+adds)
	}
	if dyn.DeltaSize() != 0 {
		t.Fatal("delta not empty after final rebuild")
	}
}

// TestDeltaMergeStateMatchesOracle covers the state the lane's delta
// scan keeps beside the pairs — the distinct-partner list, each pair's
// slot in it and each slot's largest cross term — across the delta's
// lifecycle: every answer must be bit-identical to a brute-force scan of
// the folded candidate set, with effective event indices. Duplicated
// event vectors put exact ties at the n-th boundary, where a scan that
// compared by score alone would keep the wrong pair. Each lane's stats
// must be the base-only lane's plus the delta scan: the same sorted
// accesses, the delta's pairs as candidates, at most one random access
// per non-excluded delta pair, and the time included.
func TestDeltaMergeStateMatchesOracle(t *testing.T) {
	type state struct {
		name     string
		dyn      *twoTier
		excludes []int32
	}
	add := func(dyn *twoTier, vecs ...[]float32) {
		t.Helper()
		for _, v := range vecs {
			if err := dyn.AddEvent(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	fold := func(dyn *twoTier, v DeltaView) {
		dyn.set, dyn.idx = FoldDelta(dyn.set, v, 2)
		dyn.delta.Advance(v)
	}
	build := func(src *rng.Source, nEvents, nPartners, topK int) ([][]float32, *CandidateSet) {
		events := randomVecs(src, nEvents, 6, true)
		cs, err := BuildCandidates(events, randomVecs(src, nPartners, 6, true), BuildConfig{TopKEvents: topK, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return events, cs
	}

	src := rng.New(883)
	var states []state
	for _, topK := range []int{0, 5} {
		// Events land while a fold runs: the distinct-partner list is
		// rebuilt from the residual pairs, whose events arrived after
		// the view, some as copies of folded or base events.
		events, cs := build(src, 25, 12, topK)
		dyn := newTwoTier(cs, topK)
		early := randomVecs(src, 3, 6, true)
		add(dyn, append(early, slices.Clone(events[4]))...)
		view := dyn.delta.View()
		add(dyn, slices.Clone(early[1]), slices.Clone(events[4]), randomVecs(src, 1, 6, true)[0])
		fold(dyn, view)
		states = append(states, state{fmt.Sprintf("partial advance topK=%d", topK), dyn, []int32{-1, 0, 7}})

		// A second Advance empties the delta; new arrivals then start
		// a fresh distinct-partner list.
		events, cs = build(src, 25, 12, topK)
		dyn = newTwoTier(cs, topK)
		add(dyn, randomVecs(src, 3, 6, true)...)
		fold(dyn, dyn.delta.View())
		add(dyn, randomVecs(src, 2, 6, true)...)
		fold(dyn, dyn.delta.View())
		if dyn.delta.PairCount() != 0 {
			t.Fatal("second Advance left pairs behind")
		}
		late := randomVecs(src, 2, 6, true)
		add(dyn, append(late, slices.Clone(late[0]), slices.Clone(events[9]))...)
		states = append(states, state{fmt.Sprintf("emptied then ingested topK=%d", topK), dyn, []int32{-1, 3, 11}})
	}

	// Partner 2 has no base pairs, so excluding it only changes the delta.
	_, cs := build(src, 20, 10, 0)
	var pairs []Candidate
	var cross []float32
	for i, p := range cs.Pairs {
		if p.Partner != 2 {
			pairs = append(pairs, p)
			cross = append(cross, cs.Cross[i])
		}
	}
	cs = &CandidateSet{K: cs.K, Events: cs.Events, Partners: cs.Partners, Pairs: pairs, Cross: cross}
	dyn := newTwoTier(cs, 0)
	dup := randomVecs(src, 2, 6, true)
	add(dyn, append(dup, slices.Clone(dup[0]))...)
	states = append(states, state{"exclude a delta-only partner", dyn, []int32{2, -1}})

	// A base of 12 pairs answers every n ≥ 12 with a list shorter than n.
	events, cs := build(src, 3, 4, 0)
	dyn = newTwoTier(cs, 0)
	add(dyn, slices.Clone(events[1]), randomVecs(src, 1, 6, true)[0], slices.Clone(events[1]))
	states = append(states, state{"base shorter than n", dyn, []int32{-1, 1}})

	sc := GetScratch()
	defer PutScratch(sc)
	for _, st := range states {
		folded, _ := FoldDelta(st.dyn.set, st.dyn.delta.View(), 2)
		for q := 0; q < 6; q++ {
			userVec := randomVecs(src, 1, 6, true)[0]
			for _, n := range []int{1, 7, 15, len(folded.Pairs) + 5} {
				for _, exclude := range st.excludes {
					_, base := st.dyn.idx.Search(Query{Vec: userVec, N: n, Exclude: exclude}, sc)
					got, stats := st.dyn.TopNExcluding(userVec, n, exclude, sc)
					want := filterThenRankOracle(folded, userVec, n, exclude, nil)
					if len(got) != len(want) {
						t.Fatalf("%s q=%d n=%d exclude=%d: %d results, want %d", st.name, q, n, exclude, len(got), len(want))
					}
					for i := range want {
						if got[i].Event != want[i].Event || got[i].Partner != want[i].Partner ||
							math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
							t.Fatalf("%s q=%d n=%d exclude=%d rank %d: got (%d,%d) %v delta=%v, want (%d,%d) %v",
								st.name, q, n, exclude, i, got[i].Event, got[i].Partner, got[i].Score, st.dyn.fromDelta(got[i]),
								want[i].Event, want[i].Partner, want[i].Score)
						}
					}
					scanned := 0
					for _, p := range st.dyn.delta.View().Pairs {
						if p.Partner != exclude {
							scanned++
						}
					}
					scored := stats.RandomAccesses - base.RandomAccesses
					if stats.SortedAccesses != base.SortedAccesses || scored < 0 || scored > scanned ||
						stats.Candidates != base.Candidates+st.dyn.delta.PairCount() || stats.Elapsed <= 0 {
						t.Fatalf("%s n=%d exclude=%d: stats %+v against base-only %+v, want the base's sorted accesses, at most %d more random accesses, %d more candidates, positive elapsed",
							st.name, n, exclude, stats, base, scanned, st.dyn.delta.PairCount())
					}
				}
			}
		}
	}
}
