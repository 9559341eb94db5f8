package ebsn

import (
	"math"
	"testing"
	"time"
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
