package ebsn

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"ebsn/internal/rng"
	"ebsn/internal/ta"
)

func TestTopEventsBatchMatchesSingle(t *testing.T) {
	rec := tinyRecommender(t)
	users := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	batch, err := rec.TopEventsBatch(users, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(users) {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, u := range users {
		single, err := rec.TopEvents(u, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(batch[i]) {
			t.Fatalf("user %d: batch %d vs single %d results", u, len(batch[i]), len(single))
		}
		for j := range single {
			if single[j] != batch[i][j] {
				t.Fatalf("user %d rank %d: %+v vs %+v", u, j, batch[i][j], single[j])
			}
		}
	}
}

func TestIngestColdEventSurfacesInLiveResults(t *testing.T) {
	// Fresh recommender: this test mutates serving state.
	rec, err := New(Config{City: CityTiny, Seed: 31, Threads: 4, TrainSteps: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Dataset()

	// Without ingestion, live results must equal the static path.
	static, err := recommendOne(rec, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	live, err := rec.TopEventPartnersLive(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range static {
		if static[i] != live[i] {
			t.Fatalf("live path diverges without ingestion at %d", i)
		}
	}

	// Ingest a clone of a popular event; it should be able to reach the
	// top of some user's list since its embedding mirrors a real one.
	template := int32(rec.Split().TestEvents[0])
	id, err := rec.IngestColdEvent(d.Events[template].Words, d.Events[template].Venue,
		time.Date(2013, 2, 1, 19, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if id != -1 {
		t.Fatalf("first live event id = %d, want -1", id)
	}
	if rec.LiveEventCount() != 1 {
		t.Fatalf("LiveEventCount = %d", rec.LiveEventCount())
	}

	// The live event must appear in at least one user's top list.
	found := false
	for u := int32(0); int(u) < d.NumUsers && !found; u += 3 {
		pairs, err := rec.TopEventPartnersLive(u, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if p.Event == id {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("ingested event never surfaced in live recommendations")
	}

	// Compaction preserves the live ID mapping.
	rec.CompactLiveEvents()
	found = false
	for u := int32(0); int(u) < d.NumUsers && !found; u += 3 {
		pairs, err := rec.TopEventPartnersLive(u, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if p.Event == id {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("live event lost its ID after compaction")
	}

	// A second ingest after compaction gets ID -2.
	id2, err := rec.IngestColdEvent(d.Events[template].Words, d.Events[template].Venue,
		time.Date(2013, 2, 2, 19, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != -2 {
		t.Fatalf("second live event id = %d, want -2", id2)
	}
}

func TestLiveIngestLifecycle(t *testing.T) {
	// The full serving lifecycle: ingest → query → compact → ingest →
	// query, asserting live IDs stay stable across compaction and the
	// ranking itself is unchanged by it (compaction only moves pairs
	// from the delta into the main index).
	rec, err := New(Config{City: CityTiny, Seed: 47, Threads: 4, TrainSteps: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Dataset()
	templates := rec.Split().TestEvents
	if len(templates) < 3 {
		t.Fatalf("tiny split has only %d test events", len(templates))
	}
	ingest := func(i int) LiveEventID {
		t.Helper()
		e := d.Events[templates[i%len(templates)]]
		id, err := rec.IngestColdEvent(e.Words, e.Venue, time.Date(2013, 2, 1+i, 19, 0, 0, 0, time.UTC))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	// Two ingests into the delta.
	if id := ingest(0); id != -1 {
		t.Fatalf("first ingest id = %d, want -1", id)
	}
	if id := ingest(1); id != -2 {
		t.Fatalf("second ingest id = %d, want -2", id)
	}
	if rec.LiveEventCount() != 2 {
		t.Fatalf("LiveEventCount = %d, want 2", rec.LiveEventCount())
	}

	users := []int32{0, 2, 4, 6, 8}
	before := make(map[int32][]PairRecommendation)
	for _, u := range users {
		pairs, err := rec.TopEventPartnersLive(u, 10)
		if err != nil {
			t.Fatal(err)
		}
		before[u] = pairs
	}

	// Compaction must not change what any user sees: the same
	// (event, partner) pairs in the same order with the same score bits.
	// The fold keeps the cross terms computed at arrival and ranks a
	// delta event under the index it lands at, so nothing is recomputed.
	if err := rec.CompactLiveEvents(); err != nil {
		t.Fatal(err)
	}
	if rec.LiveEventCount() != 2 {
		t.Fatalf("LiveEventCount after compaction = %d, want 2", rec.LiveEventCount())
	}
	for _, u := range users {
		after, err := rec.TopEventPartnersLive(u, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before[u]) {
			t.Fatalf("user %d: %d results after compaction, %d before", u, len(after), len(before[u]))
		}
		for i, p := range after {
			b := before[u][i]
			if p.Event != b.Event || p.Partner != b.Partner || math.Float32bits(p.Score) != math.Float32bits(b.Score) {
				t.Fatalf("user %d rank %d: %+v before compaction, %+v after", u, i, b, p)
			}
		}
	}

	// A third ingest lands in the (now empty) delta with the next ID,
	// and mixed delta + compacted results keep distinct stable IDs.
	if id := ingest(2); id != -3 {
		t.Fatalf("post-compaction ingest id = %d, want -3", id)
	}
	if rec.LiveEventCount() != 3 {
		t.Fatalf("LiveEventCount = %d, want 3", rec.LiveEventCount())
	}
	seen := map[int32]bool{}
	for u := int32(0); int(u) < d.NumUsers; u += 2 {
		pairs, err := rec.TopEventPartnersLive(u, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if p.Event < 0 {
				seen[p.Event] = true
				if p.Event < -3 {
					t.Fatalf("impossible live ID %d with 3 ingested events", p.Event)
				}
			}
		}
	}
	if len(seen) == 0 {
		t.Error("no live event surfaced in any top-10 list")
	}
}

// TestLiveIDsSurviveRePrepare checks the live IDs a re-prepare leaves
// behind: PrepareJoint drops the live tiers, but IDs keep counting, so
// the events ingested afterwards must surface under their own IDs both
// from the delta and once compacted.
func TestLiveIDsSurviveRePrepare(t *testing.T) {
	rec := cloneRecommender(t, tinyRecommender(t))
	pruneK := rec.DefaultPruneK()
	if err := rec.PrepareJoint(pruneK); err != nil {
		t.Fatal(err)
	}
	ingestClones(t, rec, 2) // IDs -1, -2, then dropped
	if err := rec.PrepareJoint(pruneK); err != nil {
		t.Fatal(err)
	}
	ingestClones(t, rec, 3) // IDs -3, -4, -5
	for _, stage := range []string{"in the delta", "compacted"} {
		seen := map[int32]bool{}
		for u := int32(0); int(u) < rec.Dataset().NumUsers; u++ {
			pairs, err := rec.TopEventPartnersLive(u, 40)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				if p.Event < 0 {
					seen[p.Event] = true
				}
			}
		}
		for id := range seen {
			if id > -3 || id < -5 {
				t.Fatalf("%s: live ID %d surfaced; the live events are -3, -4 and -5", stage, id)
			}
		}
		if len(seen) == 0 {
			t.Fatalf("%s: no live event surfaced", stage)
		}
		if err := rec.CompactLiveEvents(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiveAnswersMatchBruteForce checks joint queries over the live
// tier end to end on the trained tiny city. For every user — after an
// ingest, after the compaction that folds it, and after a second ingest
// of the same events (exact ties across the fold) — at 1 and 3 shards,
// n ∈ {1, 10, 40}, and with no predicate, a time window (through
// Recommend) and a random 10% of the events (through the live engine),
// the answer must equal brute force over the base plus every live event,
// with == on pairs, live IDs and score bits. Its walk must pop exactly
// the partner bounds the base-only walk pops, and its delta scan may
// score no more pairs than the delta holds allowed pairs.
func TestLiveAnswersMatchBruteForce(t *testing.T) {
	base := tinyRecommender(t)
	lw := liveWindow(t, base)
	src := rng.New(272)
	for _, shards := range []int{1, 3} {
		rec := cloneRecommender(t, base)
		pruneK := rec.DefaultPruneK()
		if err := rec.PrepareJointSharded(pruneK, shards); err != nil {
			t.Fatal(err)
		}
		oracle := newLiveOracle(t, rec, pruneK)
		check := func(stage string) {
			t.Helper()
			window := oracle.pred(lw)
			// A 10% draw over ~40 events; redrawn until it allows a test
			// event and a live one, so the row exercises both tiers.
			testN := len(rec.Split().TestEvents)
			random := make(EventPredicate, len(window))
			for !slices.Contains(random[:testN], true) || !slices.Contains(random[testN:], true) {
				for x := range random {
					random[x] = src.Float64() < 0.1
				}
			}
			view := rec.taDelta.View()
			nBase := rec.taLiveEngine.NumEvents()
			live := map[string]int{}
			for u := int32(0); int(u) < rec.Dataset().NumUsers; u++ {
				uv := rec.model.UserVec(u)
				ranked := oracle.ranked(u)
				for _, pc := range []struct {
					name string
					pred EventPredicate
				}{{"unconstrained", nil}, {"window", window}, {"random", random}} {
					deltaPairs := 0
					for _, p := range view.Pairs {
						if p.Partner != u && (pc.pred == nil || pc.pred[nBase+int(p.Event)]) {
							deltaPairs++
						}
					}
					var basePred EventPredicate
					if pc.pred != nil {
						basePred = pc.pred[:nBase]
					}
					for _, n := range []int{1, 10, 40} {
						label := fmt.Sprintf("shards=%d %s %s user %d n=%d", shards, stage, pc.name, u, n)
						want := oracle.want(ranked, u, n, pc.pred)
						var got []PairRecommendation
						var es EngineStats
						var err error
						switch pc.name {
						case "random":
							var res []ta.Result
							res, es, err = rec.taLiveEngine.Search([][]float32{uv}, []int32{u}, n, pc.pred, rec.taDelta, nil, nil, nil)
							got = rec.jointPairs(res)
						case "window":
							got, es, err = firstLane(rec.Recommend([]int32{u}, n, lw))
						default:
							got, es, err = firstLane(rec.Recommend([]int32{u}, n, Constraint{}))
						}
						if err != nil {
							t.Fatal(err)
						}
						pairsBitIdentical(t, label, want, got)
						if hasLive(got) {
							live[pc.name]++
						}
						_, baseOnly, err := rec.taLiveEngine.Search([][]float32{uv}, []int32{u}, n, basePred, nil, nil, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						scored := es.Agg.RandomAccesses - baseOnly.Agg.RandomAccesses
						if es.Agg.SortedAccesses != baseOnly.Agg.SortedAccesses || scored < 0 || scored > deltaPairs {
							t.Fatalf("%s: %d sorted, %d random accesses; the base-only walk makes %d and %d, and %d allowed delta pairs are scannable",
								label, es.Agg.SortedAccesses, es.Agg.RandomAccesses,
								baseOnly.Agg.SortedAccesses, baseOnly.Agg.RandomAccesses, deltaPairs)
						}
					}
				}
			}
			for _, name := range []string{"unconstrained", "window", "random"} {
				if live[name] == 0 {
					t.Fatalf("shards=%d %s %s: no live event reaches any answer", shards, stage, name)
				}
			}
		}

		oracle.ingest(t, 6)
		check("after ingest")
		oracle.compact(t)
		check("after compaction")
		oracle.ingest(t, 6)
		check("after more ingest")
	}
}

func TestExplainDecomposition(t *testing.T) {
	rec := tinyRecommender(t)
	b, err := rec.Explain(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Model().ScoreTriple(1, 2, 3)
	if diff := b.Total - want; diff > 1e-4 || diff < -1e-4 {
		t.Errorf("breakdown total %v != triple score %v", b.Total, want)
	}
	if b.Total != b.UserEvent+b.PartnerEvent+b.Social {
		t.Error("breakdown terms do not sum to total")
	}
	if _, err := rec.Explain(-1, 2, 3); err == nil {
		t.Error("bad user accepted")
	}
	if _, err := rec.Explain(1, 999999, 3); err == nil {
		t.Error("bad partner accepted")
	}
	if _, err := rec.Explain(1, 2, 999999); err == nil {
		t.Error("bad event accepted")
	}
}
