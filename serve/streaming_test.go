package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// postIngest marshals req, POSTs it, and decodes the response.
func postIngest(t *testing.T, srv *httptest.Server, req IngestRequest) (*http.Response, IngestResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out IngestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// templateBatch builds count ingestable events cloned (with varied
// start dates) from the shared fixture's test events, so every word is
// in-vocabulary and every venue exists.
func templateBatch(t *testing.T, count int) []IngestEvent {
	t.Helper()
	rec := testRecommender(t)
	d := rec.Dataset()
	tev := rec.Split().TestEvents
	out := make([]IngestEvent, count)
	for i := range out {
		template := tev[i%len(tev)]
		out[i] = IngestEvent{
			Words: d.Events[template].Words,
			Venue: d.Events[template].Venue,
			Start: time.Date(2013, 3, 1+i%27, 19, 0, 0, 0, time.UTC),
		}
	}
	return out
}

func TestBatchIngestSchemaOrgFieldsAndSourceAttribution(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	rec := testRecommender(t)
	d := rec.Dataset()
	template := rec.Split().TestEvents[0]
	words := d.Events[template].Words
	venue := d.Events[template].Venue
	liveBefore := rec.LiveEventCount()

	// One pre-tokenized event plus one Schema.org-flavored event whose
	// name/description/keywords tokenize back to in-vocabulary words.
	mid := len(words)/2 + 1
	req := IngestRequest{
		Source: "meetup",
		Events: []IngestEvent{
			{Words: words, Venue: venue, Start: time.Date(2013, 3, 2, 19, 0, 0, 0, time.UTC)},
			{
				Name:        strings.Join(words[:mid], " "),
				Description: strings.Join(words[mid:], ", "),
				Keywords:    []string{words[0]},
				Venue:       venue,
				StartDate:   time.Date(2013, 3, 3, 19, 0, 0, 0, time.UTC),
			},
		},
	}
	resp, out := postIngest(t, srv, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch ingest = %d", resp.StatusCode)
	}
	if out.Ingested != 2 || len(out.IDs) != 2 {
		t.Fatalf("batch response = %+v, want 2 ingested", out)
	}
	for _, id := range out.IDs {
		if id >= 0 {
			t.Fatalf("live event ID %d not negative", id)
		}
	}
	if out.ID != out.IDs[0] {
		t.Fatalf("legacy ID field %d != first batch ID %d", out.ID, out.IDs[0])
	}
	if out.Source != "meetup" || out.SourceTotal != 2 {
		t.Fatalf("source attribution = %q/%d, want meetup/2", out.Source, out.SourceTotal)
	}
	if got := rec.LiveEventCount(); got != liveBefore+2 {
		t.Fatalf("LiveEventCount = %d, want %d", got, liveBefore+2)
	}

	// A second single-event ingest defaults its source.
	if _, out2 := postIngest(t, srv, IngestRequest{Words: words, Venue: venue,
		Start: time.Date(2013, 3, 4, 19, 0, 0, 0, time.UTC)}); out2.Source != "default" {
		t.Fatalf("single-event source = %q, want default", out2.Source)
	}

	// The per-source counters reach /metrics as labelled series.
	m := scrape(t, s)
	if m[`ebsn_serve_ingest_events_total{source="meetup"}`] != 2 || m[`ebsn_serve_ingest_events_total{source="default"}`] != 1 {
		t.Fatalf("ingest events by source: meetup=%v default=%v, want 2/1",
			m[`ebsn_serve_ingest_events_total{source="meetup"}`], m[`ebsn_serve_ingest_events_total{source="default"}`])
	}
	if m[`ebsn_serve_delta_events`] < 3 {
		t.Fatalf("pending events = %v, want >= 3", m[`ebsn_serve_delta_events`])
	}

	// Batches are atomic: one invalid event rejects the lot.
	liveBefore = rec.LiveEventCount()
	badReq := IngestRequest{Source: "meetup", Events: []IngestEvent{
		{Words: words, Venue: venue, Start: time.Date(2013, 3, 5, 19, 0, 0, 0, time.UTC)},
		{Venue: venue, Start: time.Date(2013, 3, 5, 20, 0, 0, 0, time.UTC)}, // no words, no name
	}}
	if resp, _ := postIngest(t, srv, badReq); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with empty event = %d, want 400", resp.StatusCode)
	}
	badVenue := IngestRequest{Events: []IngestEvent{
		{Words: words, Venue: venue, Start: time.Date(2013, 3, 5, 19, 0, 0, 0, time.UTC)},
		{Words: words, Venue: 99999, Start: time.Date(2013, 3, 5, 20, 0, 0, 0, time.UTC)},
	}}
	if resp, _ := postIngest(t, srv, badVenue); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with bad venue = %d, want 400", resp.StatusCode)
	}
	mixed := IngestRequest{Words: words, Start: time.Date(2013, 3, 5, 19, 0, 0, 0, time.UTC),
		Events: []IngestEvent{{Words: words, Venue: venue, Start: time.Date(2013, 3, 5, 19, 0, 0, 0, time.UTC)}}}
	if resp, _ := postIngest(t, srv, mixed); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed single/batch shapes = %d, want 400", resp.StatusCode)
	}
	if got := rec.LiveEventCount(); got != liveBefore {
		t.Fatalf("rejected batches changed LiveEventCount %d -> %d", liveBefore, got)
	}

	// Drain the delta so no pending state leaks into later tests.
	resp3, err := http.Post(srv.URL+"/v1/compact?wait=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
}

// TestCompactNonBlockingUnderLoad is the tentpole acceptance test:
// ingest a >=1k-event delta in one batch, kick /v1/compact without
// wait (it must return immediately with the fold still running in the
// background), and require every query issued until the fold lands to
// answer 200. Joining via ?wait=1 must leave zero pending events and a
// bumped generation.
func TestCompactNonBlockingUnderLoad(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	const batch = 1200
	resp, out := postIngest(t, srv, IngestRequest{Source: "feed", Events: templateBatch(t, batch)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk ingest = %d", resp.StatusCode)
	}
	if out.Ingested != batch || out.PendingEvents < batch {
		t.Fatalf("bulk ingest response = ingested %d pending %d, want %d", out.Ingested, out.PendingEvents, batch)
	}
	genBefore := s.Generation()

	// Queries hammer the live path until the fold completes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/v1/partners/live?user=%d&n=5", (w+i)%8)
				if i%3 == 0 {
					path = fmt.Sprintf("/v1/partners?user=%d&n=5", (w+i)%8)
				}
				if resp := getJSON(t, srv, path, nil); resp.StatusCode != 200 {
					t.Errorf("%s = %d during background compaction", path, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	// Fire-and-forget: the handler must come back without the fold.
	cresp, err := http.Post(srv.URL+"/v1/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var comp CompactResponse
	if err := json.NewDecoder(cresp.Body).Decode(&comp); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if !comp.Started {
		t.Fatalf("compact with %d pending events reported started=false: %+v", batch, comp)
	}

	// Join the in-flight run.
	wresp, err := http.Post(srv.URL+"/v1/compact?wait=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var joined CompactResponse
	if err := json.NewDecoder(wresp.Body).Decode(&joined); err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	close(stop)
	wg.Wait()

	if joined.PendingEvents != 0 {
		t.Fatalf("pending events after awaited compact = %d, want 0", joined.PendingEvents)
	}
	if joined.Compaction.Count == 0 || joined.Compaction.EventsFolded < batch {
		t.Fatalf("compaction snapshot = %+v, want >= %d events folded", joined.Compaction, batch)
	}
	if joined.Compaction.Failures != 0 {
		t.Fatalf("compaction failures = %d: %s", joined.Compaction.Failures, joined.Compaction.LastError)
	}
	if got := s.Generation(); got <= genBefore {
		t.Fatalf("generation %d -> %d, want a bump from the fold landing", genBefore, got)
	}

	// The folded events still answer on the live path.
	if resp := getJSON(t, srv, "/v1/partners/live?user=2&n=5", nil); resp.StatusCode != 200 {
		t.Fatalf("/v1/partners/live after compaction = %d", resp.StatusCode)
	}
}

func TestAutoCompactKicksInAtThreshold(t *testing.T) {
	s := warmServer(t, Config{AutoCompactEvents: 4})
	srv := httptest.NewServer(s)
	defer srv.Close()

	if resp, _ := postIngest(t, srv, IngestRequest{Source: "auto", Events: templateBatch(t, 5)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	// The threshold crossing kicks a background fold; poll until it
	// drains (bounded — compacting 5 events is quick).
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := scrape(t, s)
		if m[`ebsn_serve_delta_events`] == 0 && m[`ebsn_serve_compaction_running`] == 0 {
			if m[`ebsn_serve_compactions_total`] == 0 {
				t.Fatal("delta drained without a recorded compaction")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never drained the delta: pending=%v running=%v",
				m[`ebsn_serve_delta_events`], m[`ebsn_serve_compaction_running`])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchIngestMatchesSingleIngests pins the batched write path to the
// sequential one: one 16-event POST /v1/ingest (one panel pass per four
// events) and sixteen single-event POSTs must hand out the same live IDs
// and leave /v1/partners/live answering byte-identically — so with
// bit-identical scores — both before and after a reload replays the
// journal onto a fresh model.
func TestBatchIngestMatchesSingleIngests(t *testing.T) {
	batched := httptest.NewServer(privateServer(t, Config{}))
	defer batched.Close()
	single := httptest.NewServer(privateServer(t, Config{}))
	defer single.Close()

	events := templateBatch(t, 16)
	resp, out := postIngest(t, batched, IngestRequest{Events: events})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batched ingest = %d", resp.StatusCode)
	}
	var ids []int32
	for i, ev := range events {
		resp, one := postIngest(t, single, IngestRequest{Events: []IngestEvent{ev}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single ingest %d = %d", i, resp.StatusCode)
		}
		ids = append(ids, one.IDs...)
	}
	if !slices.Equal(out.IDs, ids) {
		t.Fatalf("batched ingest IDs %v, single ingests %v", out.IDs, ids)
	}

	same := func(stage string) {
		t.Helper()
		live := false
		for u := 0; u < 24; u++ {
			path := fmt.Sprintf("/v1/partners/live?user=%d&n=20", u)
			a, b := getBody(t, batched, path), getBody(t, single, path)
			if a != b {
				t.Fatalf("%s: %s differs\nbatched %s\n single %s", stage, path, a, b)
			}
			live = live || strings.Contains(a, `"event":-`)
		}
		if !live {
			t.Fatalf("%s: no answer ranks a live event; the comparison proves nothing", stage)
		}
	}
	same("after ingest")
	post(t, batched, "/v1/reload")
	post(t, single, "/v1/reload")
	same("after reload")
}

// TestCompactResponseReadsTheRegistry: the /v1/compact response's
// count, failures and events_folded are the registry's compaction
// counters, after one fold that lands and one that a model swap
// supersedes.
func TestCompactResponseReadsTheRegistry(t *testing.T) {
	s := privateServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	check := func(stage string, count, failures, folded uint64) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/compact?wait=1", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var cr CompactResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		c := cr.Compaction
		if c.Count != count || c.Failures != failures || c.EventsFolded != folded {
			t.Fatalf("%s: response count/failures/events_folded = %d/%d/%d, want %d/%d/%d",
				stage, c.Count, c.Failures, c.EventsFolded, count, failures, folded)
		}
		m := scrape(t, s)
		if float64(c.Count) != m[`ebsn_serve_compactions_total`] ||
			float64(c.Failures) != m[`ebsn_serve_compaction_failures_total`] ||
			float64(c.EventsFolded) != m[`ebsn_serve_compacted_events_total`] {
			t.Fatalf("%s: response %d/%d/%d, scraped %v/%v/%v", stage, c.Count, c.Failures, c.EventsFolded,
				m[`ebsn_serve_compactions_total`], m[`ebsn_serve_compaction_failures_total`], m[`ebsn_serve_compacted_events_total`])
		}
	}

	if resp, _ := postIngest(t, srv, IngestRequest{Events: templateBatch(t, 3)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	check("after a fold that lands", 1, 0, 3)

	if resp, _ := postIngest(t, srv, IngestRequest{Events: templateBatch(t, 2)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	next, err := s.rec.WithSnapshot(s.rec.Model().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Hold a read lock so the fold queues for its capture; once it waits
	// (TryRLock fails behind a pending writer), release it and take the
	// write lock, which is granted after the capture while the fold
	// runs. Swapping the model there is what a reload's swap does.
	s.mu.RLock()
	done, started := s.startCompaction()
	if !started {
		t.Fatal("compaction with pending events did not start")
	}
	for s.mu.TryRLock() {
		s.mu.RUnlock()
		time.Sleep(time.Millisecond)
	}
	s.mu.RUnlock()
	s.mu.Lock()
	s.rec = next
	s.mu.Unlock()
	<-done
	check("after a superseded fold", 2, 1, 3)
}
