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
					_, err = rec.TopEventPartners(u, 10)
				} else {
					_, _, err = rec.TopEventPartnersStats(u, 10)
				}
				if err == nil {
					_, err = rec.TopEventPartnersConstrained(u, 10, window)
				}
				if err == nil {
					_, err = rec.TopEventPartnersBatch([]int32{u, (u + 1) % nu}, 10)
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

// TestQuantizedQueriesReportEngineState is the regression test for the
// stale quantized flag: QuantizedQueries reports the prepared engine's
// mode, so re-preparing — by build or from an artifact — after
// EnableQuantizedQueries yields exact answers and false, and a
// compaction fork inherits the mode of the engine it folds.
func TestQuantizedQueriesReportEngineState(t *testing.T) {
	base := batchRecommender(t)
	exact := cloneRecommender(t, base)
	if err := exact.PrepareJointSharded(10, 1); err != nil {
		t.Fatal(err)
	}
	art := filepath.Join(t.TempDir(), "index.art")
	if err := exact.SaveIndexArtifact(art); err != nil {
		t.Fatal(err)
	}

	rec := cloneRecommender(t, base)
	if err := rec.EnableQuantizedQueries(); err == nil {
		t.Fatal("EnableQuantizedQueries succeeded with no engine prepared")
	}
	reprepare := map[string]func() error{
		"PrepareJoint":             func() error { return rec.PrepareJoint(10) },
		"PrepareJointSharded":      func() error { return rec.PrepareJointSharded(10, 3) },
		"PrepareJointFromArtifact": func() error { return rec.PrepareJointFromArtifact(art, 10, 1) },
	}
	for name, prepare := range reprepare {
		if err := rec.PrepareJointSharded(10, 2); err != nil {
			t.Fatal(err)
		}
		if err := rec.EnableQuantizedQueries(); err != nil {
			t.Fatal(err)
		}
		if !rec.QuantizedQueries() {
			t.Fatalf("%s: QuantizedQueries false after enable", name)
		}
		ingestClones(t, rec, 2)
		if err := rec.CompactLiveEvents(); err != nil {
			t.Fatal(err)
		}
		if !rec.taLiveEngine.Quantized() {
			t.Fatalf("%s: compaction fork of a quantized engine is exact", name)
		}

		if err := prepare(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.QuantizedQueries() {
			t.Fatalf("%s after EnableQuantizedQueries: QuantizedQueries still true over an exact engine", name)
		}
		for u := int32(0); u < 8; u++ {
			want, err := exact.TopEventPartners(u, 6)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rec.TopEventPartners(u, 6)
			if err != nil {
				t.Fatal(err)
			}
			pairsBitIdentical(t, name+": re-prepared vs exact", want, got)
		}
		ingestClones(t, rec, 2)
		if err := rec.CompactLiveEvents(); err != nil {
			t.Fatal(err)
		}
		if rec.taLiveEngine.Quantized() {
			t.Fatalf("%s: compaction fork of an exact engine is quantized", name)
		}
	}
}

// TestJointAnswersAcrossHolders pins the one-holder contract at the
// facade: whatever engine holds the index — 1 or 4 shards, built in
// memory or mapped from an artifact — TopEventPartners, its constrained
// and batched forms, and the live query before ingest, after ingest and
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
		batch, err := rec.TopEventPartnersBatch(users, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range users {
			plain, err := rec.TopEventPartners(u, n)
			if err != nil {
				t.Fatal(err)
			}
			constrained, err := rec.TopEventPartnersConstrained(u, n, window)
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
