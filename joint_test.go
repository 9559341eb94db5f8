package ebsn

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cloneRecommender returns a recommender serving base's embeddings with
// no joint state of its own, so a test can prepare, ingest and compact
// without touching the shared fixture.
func cloneRecommender(t *testing.T, base *Recommender) *Recommender {
	t.Helper()
	rec, err := base.WithSnapshot(base.Model().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// ingestClones ingests n live events cloned from the first n test
// events, so their embeddings mirror real ones and can reach a top list.
func ingestClones(t *testing.T, rec *Recommender, n int) {
	t.Helper()
	d := rec.Dataset()
	for i := 0; i < n; i++ {
		e := d.Events[rec.Split().TestEvents[i]]
		start := time.Date(2013, 2, 1+i, 19, 0, 0, 0, time.UTC)
		if _, err := rec.IngestColdEvent(e.Words, e.Venue, start); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueriesNeverDiscardLiveState is the regression test for the forked
// index holder: with a 4-shard engine prepared and five events ingested,
// TopEventPartners used to build a second, monolithic index lazily and
// reset the live tiers, silently dropping all five events. Every query
// method now answers from the one engine and writes nothing — checked by
// comparing the Recommender before and after, and, under -race, by
// running the base and live queries concurrently.
func TestQueriesNeverDiscardLiveState(t *testing.T) {
	rec := cloneRecommender(t, tinyRecommender(t))
	if err := rec.PrepareJointSharded(max(len(rec.Split().TestEvents)/20, 1), 4); err != nil {
		t.Fatal(err)
	}
	ingestClones(t, rec, 5)
	before := *rec

	window := testWindow(t, rec)
	nu := int32(rec.Dataset().NumUsers)
	var wg sync.WaitGroup
	var live atomic.Bool
	for w := int32(0); w < 4; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			for u := w; u < nu; u += 4 {
				var err error
				if w%2 == 0 {
					_, err = recommendOne(rec, u, 10)
				} else {
					_, _, err = rec.TopEventPartnersShardedStats(u, 10)
				}
				if err == nil {
					_, _, err = rec.TopEventPartnersConstrainedStats(u, 10, window)
				}
				if err == nil {
					_, _, err = rec.Recommend([]int32{u, (u + 1) % nu}, 10, Constraint{})
				}
				// The event rankers pack the clone's test-event rows on
				// first use, racing here across the four workers.
				if err == nil {
					_, err = rec.TopEvents(u, 10)
				}
				if err == nil {
					_, err = rec.TopEventsBatch([]int32{u, (u + 1) % nu}, 10)
				}
				if err == nil {
					_, err = rec.GroupTopEvents([]int32{u, (u + 1) % nu}, 10, GroupLeastMisery, window)
				}
				if err != nil {
					t.Error(err)
					return
				}
				pairs, err := rec.TopEventPartnersLive(u, 10)
				if err != nil {
					t.Error(err)
					return
				}
				for _, p := range pairs {
					if p.Event < 0 {
						live.Store(true)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := rec.PendingLiveEvents(); got != 5 {
		t.Fatalf("PendingLiveEvents = %d after read-only queries, want 5", got)
	}
	if !live.Load() {
		t.Fatal("no live query returned a negative (live) event ID")
	}
	if *rec != before {
		t.Fatalf("a query method wrote the Recommender:\nbefore %+v\n after %+v", before, *rec)
	}
}

// TestJointAnswersAcrossHolders pins the one-holder contract at the
// facade: whatever engine holds the index — 1 or 4 shards, built in
// memory or mapped from an artifact — one user's Recommend, its
// constrained and many-user forms, and the live query before ingest, after ingest and
// after CompactLiveEvents return bit-identical results.
func TestJointAnswersAcrossHolders(t *testing.T) {
	base := tinyRecommender(t)
	window := testWindow(t, base)
	dir := t.TempDir()
	users := []int32{0, 1, 2, 3, 5, 8, 13}
	const n, pruneK = 8, 6

	// answers runs the whole query script against one configuration.
	answers := func(rec *Recommender) map[string][]PairRecommendation {
		out := map[string][]PairRecommendation{}
		record := func(stage string) {
			for _, u := range users {
				pairs, err := rec.TopEventPartnersLive(u, n)
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("live %s user %d", stage, u)] = pairs
			}
		}
		batch, _, err := rec.Recommend(users, n, Constraint{})
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range users {
			plain, err := recommendOne(rec, u, n)
			if err != nil {
				t.Fatal(err)
			}
			constrained, _, err := rec.TopEventPartnersConstrainedStats(u, n, window)
			if err != nil {
				t.Fatal(err)
			}
			pairsBitIdentical(t, "batch lane vs single", plain, batch[i])
			out[fmt.Sprintf("plain user %d", u)] = plain
			out[fmt.Sprintf("constrained user %d", u)] = constrained
		}
		record("before ingest")
		ingestClones(t, rec, 3)
		record("after ingest")
		if err := rec.CompactLiveEvents(); err != nil {
			t.Fatal(err)
		}
		record("after compaction")
		return out
	}

	var want map[string][]PairRecommendation
	for _, shards := range []int{1, 4} {
		built := cloneRecommender(t, base)
		if err := built.PrepareJointSharded(pruneK, shards); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("index-%d.art", shards))
		if err := built.SaveIndexArtifact(path); err != nil {
			t.Fatal(err)
		}
		mapped := cloneRecommender(t, base)
		if err := mapped.PrepareJointFromArtifact(path, pruneK, shards); err != nil {
			t.Fatal(err)
		}
		for holder, rec := range map[string]*Recommender{"built": built, "mapped": mapped} {
			got := answers(rec)
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d %s: %d answers, want %d", shards, holder, len(got), len(want))
			}
			for key, w := range want {
				pairsBitIdentical(t, fmt.Sprintf("shards=%d %s: %s", shards, holder, key), w, got[key])
			}
		}
	}
}
