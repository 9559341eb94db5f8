package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ebsn"
	"ebsn/internal/obs"
)

// One trained pipeline is shared by every test in the package; servers
// are cheap, training is not. Tests that ingest events make assertions
// relative to the current live-event count, never absolute.
var (
	recOnce sync.Once
	recVal  *ebsn.Recommender
	recErr  error
)

func sharedRecommender() (*ebsn.Recommender, error) {
	recOnce.Do(func() {
		recVal, recErr = ebsn.New(ebsn.Config{City: ebsn.CityTiny, Seed: 7, Threads: 4, TrainSteps: testTrainSteps})
	})
	return recVal, recErr
}

func testRecommender(t *testing.T) *ebsn.Recommender {
	t.Helper()
	rec, err := sharedRecommender()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func warmServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(testRecommender(t), cfg)
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	return s
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

// scrape renders GET /metrics from h, holds it to the exposition rules,
// and returns its samples by Sample.Key().
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	return scrapeTarget(t, h, "/metrics")
}

// scrapeTarget is scrape for any request target.
func scrapeTarget(t *testing.T, h http.Handler, target string) map[string]float64 {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", target, nil))
	body := rw.Body.Bytes()
	if err := obs.Lint(bytes.NewReader(body)); err != nil {
		t.Fatalf("%s fails exposition lint: %v", target, err)
	}
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64, len(samples))
	for _, sm := range samples {
		got[sm.Key()] = sm.Value
	}
	return got
}

func TestHealthAndReadiness(t *testing.T) {
	s := New(testRecommender(t), Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	if resp := getJSON(t, srv, "/healthz", nil); resp.StatusCode != 200 {
		t.Fatalf("/healthz = %d before warm", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d before warm, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/v1/events?user=3&n=5", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/events = %d before warm, want 503", resp.StatusCode)
	}
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(); err != nil { // idempotent
		t.Fatal(err)
	}
	if resp := getJSON(t, srv, "/readyz", nil); resp.StatusCode != 200 {
		t.Fatalf("/readyz = %d after warm", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/v1/events?user=3&n=5", nil); resp.StatusCode != 200 {
		t.Fatalf("/v1/events = %d after warm", resp.StatusCode)
	}
}

func TestQueryEndpoints(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	rec := testRecommender(t)

	var events RankingResponse
	if resp := getJSON(t, srv, "/v1/events?user=3&n=5", &events); resp.StatusCode != 200 {
		t.Fatalf("/v1/events = %d", resp.StatusCode)
	}
	if events.User != 3 || events.N != 5 || len(events.Events) == 0 || len(events.Events) > 5 {
		t.Fatalf("events payload = %+v", events)
	}
	want, err := rec.TopEvents(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if events.Events[i].Event != want[i].Event {
			t.Fatalf("rank %d: served %d, library %d", i, events.Events[i].Event, want[i].Event)
		}
		if events.Events[i].Start == "" {
			t.Fatalf("rank %d: missing start time", i)
		}
	}

	var pairs RankingResponse
	if resp := getJSON(t, srv, "/v1/partners?user=3&n=5", &pairs); resp.StatusCode != 200 {
		t.Fatalf("/v1/partners = %d", resp.StatusCode)
	}
	if len(pairs.Pairs) == 0 || len(pairs.Pairs) > 5 {
		t.Fatalf("pairs payload = %+v", pairs)
	}
	for _, p := range pairs.Pairs {
		if p.Partner == 3 {
			t.Fatal("user recommended as own partner")
		}
	}

	var live RankingResponse
	if resp := getJSON(t, srv, "/v1/partners/live?user=3&n=5", &live); resp.StatusCode != 200 {
		t.Fatalf("/v1/partners/live = %d", resp.StatusCode)
	}

	var ex ExplainResponse
	if resp := getJSON(t, srv, "/v1/explain?user=1&partner=2&event=3", &ex); resp.StatusCode != 200 {
		t.Fatalf("/v1/explain = %d", resp.StatusCode)
	}
	sum := ex.UserEvent + ex.PartnerEvent + ex.Social
	if diff := ex.Total - sum; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("explain terms %v do not sum to total %v", sum, ex.Total)
	}

	// Default n applies when the parameter is absent.
	var defN RankingResponse
	getJSON(t, srv, "/v1/events?user=0", &defN)
	if defN.N != 10 {
		t.Fatalf("default n = %d, want 10", defN.N)
	}
}

func TestBadRequests(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	for _, path := range []string{
		"/v1/events",              // missing user
		"/v1/events?user=-1",      // negative user
		"/v1/events?user=999999",  // out of range
		"/v1/events?user=3&n=0",   // bad n
		"/v1/events?user=3&n=101", // n over maxN
		"/v1/events?user=abc",     // non-numeric
		"/v1/partners?user=",      // empty user
		"/v1/explain?user=1",      // missing partner/event
		"/v1/explain?user=1&partner=2&event=999999",
	} {
		resp := getJSON(t, srv, path, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", path, resp.StatusCode)
		}
	}

	// Wrong method: the go 1.22 mux rejects POST to a GET-only route
	// (/v1/events and /v1/partners accept POST now — batched queries).
	resp, err := http.Post(srv.URL+"/v1/explain?user=1&partner=2&event=3", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/explain = %d, want 405", resp.StatusCode)
	}
}

func TestCacheHitMissAndInvalidationOnIngest(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	h0, m0 := s.Cache().Stats()
	getJSON(t, srv, "/v1/partners?user=5&n=4", nil)
	h1, m1 := s.Cache().Stats()
	if h1 != h0 || m1 != m0+1 {
		t.Fatalf("first query: hits %d→%d misses %d→%d, want one miss", h0, h1, m0, m1)
	}
	getJSON(t, srv, "/v1/partners?user=5&n=4", nil)
	h2, m2 := s.Cache().Stats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("second query: hits %d→%d misses %d→%d, want one hit", h1, h2, m1, m2)
	}

	// Ingest bumps the generation; the same query must miss again.
	gen0 := s.Generation()
	ingestTemplateEvent(t, srv)
	if s.Generation() != gen0+1 {
		t.Fatalf("generation %d → %d, want +1", gen0, s.Generation())
	}
	getJSON(t, srv, "/v1/partners?user=5&n=4", nil)
	h3, m3 := s.Cache().Stats()
	if h3 != h2 || m3 != m2+1 {
		t.Fatalf("post-ingest query: hits %d→%d misses %d→%d, want one miss", h2, h3, m2, m3)
	}

	// Compaction bumps the generation too once the background fold
	// lands; ?wait=1 restores synchronous semantics for the assertion.
	genBefore := s.Generation()
	resp, err := http.Post(srv.URL+"/v1/compact?wait=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var comp CompactResponse
	if err := json.NewDecoder(resp.Body).Decode(&comp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if comp.Generation != genBefore+1 {
		t.Fatalf("compact generation = %d, want %d", comp.Generation, genBefore+1)
	}
	if comp.PendingEvents != 0 {
		t.Fatalf("pending events after awaited compact = %d, want 0", comp.PendingEvents)
	}
}

// ingestTemplateEvent POSTs a clone of an existing test event and
// returns the assigned live ID.
func ingestTemplateEvent(t *testing.T, srv *httptest.Server) int32 {
	t.Helper()
	rec := testRecommender(t)
	d := rec.Dataset()
	template := rec.Split().TestEvents[0]
	body, _ := json.Marshal(IngestRequest{
		Words: d.Events[template].Words,
		Venue: d.Events[template].Venue,
		Start: time.Date(2013, 2, 1, 19, 0, 0, 0, time.UTC),
	})
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/ingest = %d", resp.StatusCode)
	}
	if out.ID >= 0 {
		t.Fatalf("live event ID = %d, want negative", out.ID)
	}
	return out.ID
}

func TestIngestLifecycleOverHTTP(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	rec := testRecommender(t)

	liveBefore := rec.LiveEventCount()
	id := ingestTemplateEvent(t, srv)

	if got := rec.LiveEventCount(); got != liveBefore+1 {
		t.Fatalf("LiveEventCount = %d, want %d", got, liveBefore+1)
	}
	// The ingested clone of a popular event should surface for some user
	// in the live path, flagged Live with its negative ID.
	d := rec.Dataset()
	found := false
	for u := 0; u < d.NumUsers && !found; u += 3 {
		var out RankingResponse
		getJSON(t, srv, fmt.Sprintf("/v1/partners/live?user=%d&n=10", u), &out)
		for _, p := range out.Pairs {
			if p.Event == id {
				if !p.Live {
					t.Fatal("negative-ID event not flagged live")
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("ingested event never surfaced in live recommendations")
	}

	// A live query is one observation of time inside the index, base
	// search and delta scan together.
	tas := s.metrics.taDuration.Count()
	getJSON(t, srv, "/v1/partners/live?user=1&n=7", nil)
	if got := s.metrics.taDuration.Count(); got != tas+1 {
		t.Errorf("TA duration observations after one live query = %d, want %d", got, tas+1)
	}

	for _, path := range []string{"/v1/ingest", "/v1/compact"} {
		resp := getJSON(t, srv, path, nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, resp.StatusCode)
		}
	}

	// Malformed ingest bodies are rejected.
	for _, body := range []string{
		`{`, // truncated
		`{"words":[],"venue":0,"start":"2013-02-01T19:00:00Z"}`,     // no words
		`{"words":["a"],"venue":-1,"start":"2013-02-01T19:00:00Z"}`, // bad venue
		`{"words":["a"],"venue":99999,"start":"2013-02-01T19:00:00Z"}`,
		`{"words":["a"],"venue":0}`,              // missing start
		`{"words":["a"],"venue":0,"bogus":true}`, // unknown field
	} {
		resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("ingest body %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	for i := 0; i < 5; i++ {
		getJSON(t, srv, fmt.Sprintf("/v1/events?user=%d&n=3", i), nil)
		getJSON(t, srv, fmt.Sprintf("/v1/partners?user=%d&n=3", i), nil)
	}
	getJSON(t, srv, "/v1/events?user=999999", nil) // one 400

	if resp := getJSON(t, srv, "/metrics", nil); resp.StatusCode != 200 {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	m := scrape(t, s)
	if m[`ebsn_serve_requests_total{endpoint="events"}`] != 6 ||
		m[`ebsn_serve_request_errors_total{endpoint="events",class="4xx"}`] != 1 {
		t.Fatalf("events endpoint: requests=%v 4xx=%v", m[`ebsn_serve_requests_total{endpoint="events"}`],
			m[`ebsn_serve_request_errors_total{endpoint="events",class="4xx"}`])
	}
	if m[`ebsn_serve_request_duration_seconds_count{endpoint="events"}`] != 6 ||
		m[`ebsn_serve_request_duration_seconds_sum{endpoint="events"}`] <= 0 {
		t.Fatal("events latency histogram empty after traffic")
	}
	if m[`ebsn_serve_requests_total{endpoint="partners"}`] != 5 ||
		m[`ebsn_serve_request_duration_seconds_sum{endpoint="partners"}`] <= 0 {
		t.Fatalf("partners endpoint: requests=%v", m[`ebsn_serve_requests_total{endpoint="partners"}`])
	}
	if m[`ebsn_serve_ta_queries_total`] != 5 || m[`ebsn_serve_ta_candidates_total`] == 0 {
		t.Fatalf("TA stats: queries=%v candidates=%v", m[`ebsn_serve_ta_queries_total`], m[`ebsn_serve_ta_candidates_total`])
	}
	if frac := m[`ebsn_serve_ta_random_accesses_total`] / m[`ebsn_serve_ta_candidates_total`]; frac <= 0 || frac > 1 {
		t.Fatalf("TA access fraction = %v", frac)
	}
	if m[`ebsn_serve_cache_misses_total`] == 0 {
		t.Fatal("cache misses not counted with the cache enabled")
	}
	if m[`ebsn_serve_uptime_seconds`] <= 0 {
		t.Fatal("uptime not positive")
	}
}

func TestCacheDisabled(t *testing.T) {
	s := warmServer(t, Config{CacheCapacity: -1})
	if s.Cache() != nil {
		t.Fatal("cache built despite CacheCapacity < 0")
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	for i := 0; i < 2; i++ {
		if resp := getJSON(t, srv, "/v1/events?user=1&n=3", nil); resp.StatusCode != 200 {
			t.Fatalf("uncached query = %d", resp.StatusCode)
		}
	}
	if _, ok := scrape(t, s)[`ebsn_serve_cache_hits_total`]; ok {
		t.Fatal("metrics report cache instruments with the cache disabled")
	}
}

func TestConcurrentTrafficWithIngest(t *testing.T) {
	// Races between queries (RLock) and ingest/compaction (Lock) are the
	// point of this test; run it under -race to make it bite.
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch (w + i) % 4 {
				case 0:
					getJSON(t, srv, fmt.Sprintf("/v1/events?user=%d&n=5", i%8), nil)
				case 1:
					getJSON(t, srv, fmt.Sprintf("/v1/partners?user=%d&n=5", i%8), nil)
				case 2:
					getJSON(t, srv, fmt.Sprintf("/v1/partners/live?user=%d&n=5", i%8), nil)
				case 3:
					getJSON(t, srv, "/metrics", nil)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			ingestTemplateEvent(t, srv)
			// wait=1 keeps the fold from outliving the test: the shared
			// recommender must not be compacted under a later test's server.
			resp, err := http.Post(srv.URL+"/v1/compact?wait=1", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
}

// saveTestSnapshot writes the shared recommender's model to a temp file
// and returns the path.
func saveTestSnapshot(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := testRecommender(t).SaveModel(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReloadSwapsModelUnderConcurrentLoad(t *testing.T) {
	snapPath := saveTestSnapshot(t)
	s := warmServer(t, Config{SnapshotPath: snapPath})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Queries hammer the server while the model is swapped several
	// times; every single response must be a 200.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/v1/events?user=%d&n=5", (w+i)%8)
				if i%2 == 1 {
					path = fmt.Sprintf("/v1/partners?user=%d&n=5", (w+i)%8)
				}
				if resp := getJSON(t, srv, path, nil); resp.StatusCode != 200 {
					t.Errorf("%s = %d during reload", path, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	genBefore := s.Generation()
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/v1/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var out ReloadResponse
		if decErr := json.NewDecoder(resp.Body).Decode(&out); decErr != nil {
			t.Fatal(decErr)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("reload %d = %d", i, resp.StatusCode)
		}
		if out.Reload.Count != uint64(i+1) || out.Reload.Failures != 0 {
			t.Fatalf("reload %d counters = %+v", i, out.Reload)
		}
		if out.ModelSteps <= 0 {
			t.Fatalf("reload %d reports model steps %d", i, out.ModelSteps)
		}
	}
	close(stop)
	wg.Wait()

	if got := s.Generation(); got != genBefore+3 {
		t.Fatalf("generation %d → %d, want +3 (cache must be invalidated per reload)", genBefore, got)
	}

	m := scrape(t, s)
	if m[`ebsn_serve_reloads_total`] != 3 || m[`ebsn_serve_reload_failures_total`] != 0 {
		t.Fatalf("reload counters = %v/%v, want 3/0", m[`ebsn_serve_reloads_total`], m[`ebsn_serve_reload_failures_total`])
	}
	if m[`ebsn_serve_reload_last_success_timestamp_seconds`] <= 0 {
		t.Fatal("metrics missing last reload timestamp")
	}
	if at := m[`ebsn_serve_reload_last_failure_timestamp_seconds`]; at != 0 {
		t.Fatalf("metrics report a reload failure at %v after clean reloads", at)
	}
	if m[`ebsn_serve_model_steps`] <= 0 {
		t.Fatalf("metrics model_steps = %v", m[`ebsn_serve_model_steps`])
	}
}

func TestReloadFailureKeepsServingOldModel(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.gob")
	if err := os.WriteFile(corrupt, []byte("EBSNSNAPgarbage-that-is-not-a-snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/reload", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// No SnapshotPath configured and no path in the body.
	if resp := post(""); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("pathless reload = %d, want 500", resp.StatusCode)
	}
	// Missing file.
	if resp := post(`{"path":"` + filepath.Join(dir, "absent.gob") + `"}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("missing-file reload = %d, want 500", resp.StatusCode)
	}
	// Corrupt file.
	if resp := post(`{"path":"` + corrupt + `"}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt-file reload = %d, want 500", resp.StatusCode)
	}
	// Malformed body.
	if resp := post(`{"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed reload body = %d, want 400", resp.StatusCode)
	}

	// The old model keeps serving and the failures are on the panel.
	if resp := getJSON(t, srv, "/v1/events?user=3&n=5", nil); resp.StatusCode != 200 {
		t.Fatalf("query after failed reloads = %d", resp.StatusCode)
	}
	m := scrape(t, s)
	if m[`ebsn_serve_reloads_total`] != 0 || m[`ebsn_serve_reload_failures_total`] != 3 {
		t.Fatalf("reload counters = %v/%v, want 0/3", m[`ebsn_serve_reloads_total`], m[`ebsn_serve_reload_failures_total`])
	}
	if m[`ebsn_serve_reload_last_failure_timestamp_seconds`] <= 0 {
		t.Fatal("last reload failure not surfaced")
	}
	if m[`ebsn_serve_reload_last_success_timestamp_seconds`] != 0 {
		t.Fatal("a reload success reported where none happened")
	}
}

func TestReloadReplaysLiveEventsAndKeepsConsistency(t *testing.T) {
	snapPath := saveTestSnapshot(t)
	s := warmServer(t, Config{SnapshotPath: snapPath})
	srv := httptest.NewServer(s)
	defer srv.Close()

	ingestTemplateEvent(t, srv)
	resp, err := http.Post(srv.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out ReloadResponse
	if decErr := json.NewDecoder(resp.Body).Decode(&out); decErr != nil {
		t.Fatal(decErr)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("reload = %d", resp.StatusCode)
	}
	// The journaled live event was replayed onto the fresh model instead
	// of being dropped.
	if out.Replayed != 1 {
		t.Fatalf("reload replayed %d live events, want 1", out.Replayed)
	}
	if live := scrape(t, s)[`ebsn_serve_live_events`]; live != 1 {
		t.Fatalf("live events after reload = %v, want 1 (journal replay)", live)
	}
	// Live path still answers against the fresh index plus replayed delta.
	if resp := getJSON(t, srv, "/v1/partners/live?user=2&n=5", nil); resp.StatusCode != 200 {
		t.Fatalf("/v1/partners/live after reload = %d", resp.StatusCode)
	}
}

func TestGracefulShutdown(t *testing.T) {
	s := warmServer(t, Config{DrainTimeout: 2 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	resp, err := http.Get(url + "/v1/events?user=3&n=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pre-shutdown query = %d", resp.StatusCode)
	}

	cancel() // the SIGTERM path: context cancellation drains and exits
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down within 5s")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestFillTakesDefaultConfig pins the one default table: a zero Config
// fills to DefaultConfig with coalescing left off, and set fields stay.
func TestFillTakesDefaultConfig(t *testing.T) {
	var c Config
	c.fill()
	want := DefaultConfig()
	want.CoalesceWindow = 0
	if c != want {
		t.Errorf("zero Config fills to %+v, want %+v", c, want)
	}
	c = Config{Shards: -3, CacheCapacity: -1, CacheTTL: time.Second}
	c.fill()
	if c.Shards != 1 || c.CacheCapacity != -1 || c.CacheTTL != time.Second {
		t.Errorf("fill moved a set field: %+v", c)
	}
}
