package ebsn

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebsn/internal/ta"
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
// Clone i starts on 2013-02-(1+i), after every tiny-city test event.
func ingestClones(t *testing.T, rec *Recommender, n int) {
	t.Helper()
	for _, e := range clones(rec, n) {
		if _, err := rec.IngestColdEvent(e.Words, e.Venue, e.Start); err != nil {
			t.Fatal(err)
		}
	}
}

// clones returns the n events ingestClones ingests.
func clones(rec *Recommender, n int) []ColdEvent {
	out := make([]ColdEvent, n)
	for i := range out {
		e := rec.Dataset().Events[rec.Split().TestEvents[i]]
		out[i] = ColdEvent{Words: e.Words, Venue: e.Venue, Start: time.Date(2013, 2, 1+i, 19, 0, 0, 0, time.UTC)}
	}
	return out
}

// liveWindow is a time window that allows the later three quarters of
// the test events and the first three clones ingestClones ingests, so a
// constrained answer can hold both.
func liveWindow(t *testing.T, rec *Recommender) Constraint {
	return Constraint{From: testWindow(t, rec).From, Until: time.Date(2013, 2, 4, 0, 0, 0, 0, time.UTC)}
}

// liveOracle is brute force over a recommender's whole joint candidate
// space: the pruned base pairs plus every live event's pairs, which
// ingest and compact move into it as they move them into the
// recommender. It assumes no re-prepare drops live events.
type liveOracle struct {
	rec    *Recommender
	live   []ColdEvent      // every event ingested, in ID order
	folded *ta.CandidateSet // the base plus every compacted live event
	set    *ta.CandidateSet // folded plus the pending delta
}

func newLiveOracle(t *testing.T, rec *Recommender, pruneK int) *liveOracle {
	t.Helper()
	events, partners := rec.jointVectors()
	set, err := ta.BuildCandidates(events, partners, ta.BuildConfig{TopKEvents: pruneK, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &liveOracle{rec: rec, folded: set, set: set}
}

// ingest ingests n clones into the recommender and the oracle.
func (o *liveOracle) ingest(t *testing.T, n int) {
	t.Helper()
	ingestClones(t, o.rec, n)
	o.live = append(o.live, clones(o.rec, n)...)
	o.set, _ = ta.FoldDelta(o.folded, o.rec.taDelta.View(), 2)
}

// compact compacts the recommender and folds the same view here.
func (o *liveOracle) compact(t *testing.T) {
	t.Helper()
	view := o.rec.taDelta.View()
	if err := o.rec.CompactLiveEvents(); err != nil {
		t.Fatal(err)
	}
	o.folded, _ = ta.FoldDelta(o.folded, view, 2)
	o.set = o.folded
}

// pred compiles c over the test events, then every live event.
func (o *liveOracle) pred(c Constraint) EventPredicate {
	pred, _ := o.rec.CompileConstraint(c)
	for _, e := range o.live {
		pred = append(pred, c.Allow(e.Start, o.rec.Dataset().Venues[e.Venue]))
	}
	return pred
}

// ranked is every candidate pair for user, in canonical order.
func (o *liveOracle) ranked(user int32) []ta.Result {
	return o.set.BruteForceTopN(o.rec.model.UserVec(user), len(o.set.Pairs))
}

// want is the exact top n of ranked (user's ranking) among the pairs
// pred allows (nil allows all), the user never their own partner, with
// dataset and live event IDs.
func (o *liveOracle) want(ranked []ta.Result, user int32, n int, pred EventPredicate) []PairRecommendation {
	testN := int32(len(o.rec.Split().TestEvents))
	var out []PairRecommendation
	for _, r := range ranked {
		if len(out) == n {
			break
		}
		if r.Partner == user || pred != nil && !pred[r.Event] {
			continue
		}
		event := -(r.Event - testN + 1)
		if r.Event < testN {
			event = o.rec.Split().TestEvents[r.Event]
		}
		out = append(out, PairRecommendation{Event: event, Partner: r.Partner, Score: r.Score})
	}
	return out
}

// hasLive reports whether any pair names a live event.
func hasLive(lanes ...[]PairRecommendation) bool {
	for _, l := range lanes {
		for _, p := range l {
			if p.Event < 0 {
				return true
			}
		}
	}
	return false
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
// constrained and many-user forms, and the live query before ingest,
// after ingest, after CompactLiveEvents and after a second ingest return
// bit-identical results. Once events are ingested, the constrained and
// many-user answers must hold live events and equal brute force over
// the base and every live event.
func TestJointAnswersAcrossHolders(t *testing.T) {
	base := tinyRecommender(t)
	window := testWindow(t, base)
	lw := liveWindow(t, base)
	dir := t.TempDir()
	users := []int32{0, 1, 2, 3, 5, 8, 13}
	const n, pruneK = 8, 6

	// answers runs the whole query script against one configuration.
	answers := func(rec *Recommender) map[string][]PairRecommendation {
		out := map[string][]PairRecommendation{}
		oracle := newLiveOracle(t, rec, pruneK)
		record := func(stage string) {
			for _, u := range users {
				pairs, err := rec.TopEventPartnersLive(u, n)
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("live %s user %d", stage, u)] = pairs
			}
			if stage == "before ingest" {
				return
			}
			batch, _, err := rec.Recommend(users, n, Constraint{})
			if err != nil {
				t.Fatal(err)
			}
			constrained, _, err := rec.Recommend(users, n, lw)
			if err != nil {
				t.Fatal(err)
			}
			if !hasLive(batch...) || !hasLive(constrained...) {
				t.Fatalf("%s: a batch or constrained answer holds no live event", stage)
			}
			pred := oracle.pred(lw)
			for j, u := range users {
				ranked := oracle.ranked(u)
				pairsBitIdentical(t, fmt.Sprintf("%s batch user %d vs brute force", stage, u), oracle.want(ranked, u, n, nil), batch[j])
				pairsBitIdentical(t, fmt.Sprintf("%s constrained user %d vs brute force", stage, u), oracle.want(ranked, u, n, pred), constrained[j])
				out[fmt.Sprintf("batch %s user %d", stage, u)] = batch[j]
				out[fmt.Sprintf("constrained %s user %d", stage, u)] = constrained[j]
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
		oracle.ingest(t, 5)
		record("after ingest")
		oracle.compact(t)
		record("after compaction")
		oracle.ingest(t, 5)
		record("after more ingest")
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
