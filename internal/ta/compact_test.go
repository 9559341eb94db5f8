package ta

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ebsn/internal/rng"
	"ebsn/internal/vecmath"
)

// oracleTopN is the brute-force reference for a folded candidate set:
// every pair scored in the FastIndex's operand order (event·u +
// partner·u) + cross, sorted canonically (score desc, partner asc,
// event asc), exclusion applied, truncated to n. Unlike
// CandidateSet.BruteForceTopN it matches the index's float-addition
// order bit for bit, so ties constructed from duplicated vectors stay
// exact ties.
func oracleTopN(set *CandidateSet, userVec []float32, n int, exclude int32) []Result {
	out := make([]Result, 0, len(set.Pairs))
	for i, p := range set.Pairs {
		if p.Partner == exclude {
			continue
		}
		s := vecmath.Dot(userVec, set.Events[p.Event]) +
			vecmath.Dot(userVec, set.Partners[p.Partner]) +
			set.Cross[i]
		out = append(out, Result{Event: p.Event, Partner: p.Partner, Score: s})
	}
	slices.SortFunc(out, func(a, b Result) int {
		switch {
		case a == b:
			return 0
		case a.Outranks(b):
			return -1
		default:
			return 1
		}
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// TestDynamicMergeMatchesOracleWithTies is the live-path property test:
// the two-tier answer (main-index TA search merged with the exhaustive
// delta scan) must be bit-identical — pairs, tie order, and score bits —
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
		// events at baseEvents+i, the same effective index MergeTopN
		// ranks them under.
		folded, _ := FoldDelta(cs, dyn.delta.View(), 2)
		baseEvents := len(cs.Events)

		for q := 0; q < 25; q++ {
			userVec := randomVecs(src, 1, 6, true)[0]
			n := []int{1, 5, 17, len(folded.Pairs) + 5}[q%4]
			exclude := int32(src.Intn(len(cs.Partners)+2)) - 1
			want := oracleTopN(folded, userVec, n, exclude)
			got, _ := dyn.TopNExcluding(userVec, n, exclude, sc)
			if len(got) != len(want) {
				t.Fatalf("topK=%d q=%d: %d results, want %d", topK, q, len(got), len(want))
			}
			for i := range want {
				eff := got[i].Event
				if got[i].FromDelta {
					eff += int32(baseEvents)
				}
				if eff != want[i].Event || got[i].Partner != want[i].Partner {
					t.Fatalf("topK=%d q=%d rank %d: got pair (%d,%d) delta=%v, want (%d,%d)",
						topK, q, i, eff, got[i].Partner, got[i].FromDelta, want[i].Event, want[i].Partner)
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
