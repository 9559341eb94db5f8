package engine

import (
	"slices"
	"testing"

	"ebsn/internal/rng"
	"ebsn/internal/ta"
)

// TestSearchWithDeltaMatchesFold checks the live tier across shard
// counts: a Search that carries a delta must answer every lane
// bit-identically to the same query on the engine that folds the delta
// in — delta events numbered past the base, as the fold numbers them —
// with each shard scanning only the delta pairs whose partner it owns.
// The delta holds copies of base events and of its own arrivals, so
// exact ties cross the tier boundary and the shard boundaries. The
// lanes ride one batch, so lane j reads its own query row, and the
// delta adds no partner-bound pops to the base-only walk. Half the
// queries carry a predicate over the base and delta events.
func TestSearchWithDeltaMatchesFold(t *testing.T) {
	src := rng.New(951)
	const nx, nu, k, topK = 24, 37, 6, 5
	events := randomVecs(src, nx, k)
	partners := randomVecs(src, nu, k)
	for _, shards := range shardCounts {
		e, err := Build(events, partners, Config{Shards: shards, TopKEvents: topK, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.NewDelta(topK)
		if err != nil {
			t.Fatal(err)
		}
		added := randomVecs(src, 4, k)
		added = append(added, slices.Clone(events[3]), slices.Clone(events[3]), slices.Clone(added[1]))
		if err := d.AddEvents(added); err != nil {
			t.Fatal(err)
		}
		folded, err := e.Fold(d.View(), 2)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 16; q++ {
			users := randomVecs(src, 3, k)
			users = append(users, partners[q])
			exclude := []int32{-1, int32(src.Intn(nu)), int32(q), int32(q)}
			n := []int{1, 6, 20, nu * nx}[q%4]
			// Every other query carries a predicate over the base and
			// delta events, which the fold covers at the same indices.
			var pred, basePred ta.EventPredicate
			if q%2 == 1 {
				pred = make(ta.EventPredicate, nx+d.Events())
				for x := range pred {
					pred[x] = src.Intn(3) == 0
				}
				basePred = pred[:nx]
			}
			outs := make([][]ta.Result, len(users))
			_, stats, err := e.Search(users, exclude, n, pred, d, nil, outs, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantOuts := make([][]ta.Result, len(users))
			if _, _, err := folded.Search(users, exclude, n, pred, nil, nil, wantOuts, nil); err != nil {
				t.Fatal(err)
			}
			for j := range users {
				assertBitIdentical(t, "live lane vs folded engine", wantOuts[j], outs[j])
			}
			_, base, err := e.Search(users, exclude, n, basePred, nil, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Agg.SortedAccesses != base.Agg.SortedAccesses ||
				stats.Agg.Candidates != base.Agg.Candidates+d.PairCount() ||
				stats.Agg.RandomAccesses < base.Agg.RandomAccesses {
				t.Fatalf("shards=%d: live stats %+v against base-only %+v with %d delta pairs",
					shards, stats.Agg, base.Agg, d.PairCount())
			}
		}
	}
}

// TestSearchRejectsPredicateWithDelta checks the engine boundary: beside
// a delta, a predicate must cover the engine's events and then the
// delta's, so one of the engine's length alone is refused and one of
// both lengths is accepted; a delta of another dimension is refused too.
func TestSearchRejectsPredicateWithDelta(t *testing.T) {
	src := rng.New(952)
	events, partners := randomVecs(src, 7, 4), randomVecs(src, 9, 4)
	e, err := Build(events, partners, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.NewDelta(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddEvents(randomVecs(src, 2, 4)); err != nil {
		t.Fatal(err)
	}
	users := randomVecs(src, 1, 4)
	if _, _, err := e.Search(users, nil, 3, make(ta.EventPredicate, 7), d, nil, nil, nil); err == nil {
		t.Fatal("a predicate over the engine's events alone was accepted beside a delta")
	}
	if _, _, err := e.Search(users, nil, 3, make(ta.EventPredicate, 7+2), d, nil, nil, nil); err != nil {
		t.Fatalf("a predicate over the engine's and the delta's events was refused: %v", err)
	}
	other, err := ta.NewDelta(randomVecs(src, 9, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Search(users, nil, 3, nil, other, nil, nil, nil); err == nil {
		t.Fatal("a delta of another dimension was accepted")
	}
	if _, _, err := e.Search(users, nil, 3, nil, d, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLiveSearchSteadyStateAllocs is BenchmarkEngineSearchLive's
// allocation gate in the test suite, at a smaller shape: a warmed live
// lane allocates nothing, unconstrained or under a predicate over the
// base and delta events.
func TestLiveSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const nEvents, deltaEvents = 120, 32
	search := liveLane(t, 2000, nEvents, deltaEvents)
	pred := make(ta.EventPredicate, nEvents+deltaEvents)
	for x := range pred {
		pred[x] = x%3 != 0
	}
	search(0, pred) // warm the scratch a predicate touches
	for _, tc := range []struct {
		name string
		pred ta.EventPredicate
	}{{"unconstrained", nil}, {"constrained", pred}} {
		i := 0
		if allocs := testing.AllocsPerRun(100, func() { i++; search(i, tc.pred) }); allocs != 0 {
			t.Errorf("%s: %v allocs per warmed live Search, want 0", tc.name, allocs)
		}
	}
}
