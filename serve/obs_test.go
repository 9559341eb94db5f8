package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ebsn/internal/obs"
)

// TestMetricsPrometheusDefault exercises the real /metrics endpoint end
// to end: default format is valid Prometheus text carrying both the
// request panel and the scrape-time state instruments.
func TestMetricsPrometheusDefault(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	getJSON(t, srv, "/v1/events?user=1&n=3", nil)
	getJSON(t, srv, "/v1/partners?user=1&n=3", nil)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Lint(bytes.NewReader(body)); err != nil {
		t.Fatalf("live /metrics fails exposition lint: %v", err)
	}
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, sm := range samples {
		got[sm.Key()] = sm.Value
	}
	if got[`ebsn_serve_requests_total{endpoint="events"}`] < 1 {
		t.Error("events request not counted in exposition")
	}
	if got[`ebsn_serve_ta_queries_total`] < 1 {
		t.Error("TA query not counted in exposition")
	}
	if got[`ebsn_serve_model_steps`] != float64(testTrainSteps) {
		t.Errorf("model_steps = %v, want %d", got[`ebsn_serve_model_steps`], testTrainSteps)
	}
	if got[`ebsn_serve_ready`] != 1 {
		t.Error("ready gauge not 1 after Warm")
	}
	if _, ok := got[`ebsn_serve_cache_hits_total`]; !ok {
		t.Error("cache instruments missing with cache enabled")
	}
	if got[`ebsn_serve_draining`] != 0 {
		t.Error("draining gauge nonzero on a running server")
	}
}

// TestSlowlogEndpoint drives traced traffic with a threshold low enough
// that every query is slow, then reads the ring back through the debug
// endpoint: stage names, TA attrs, and the cache-hit marker must
// survive the trip.
func TestSlowlogEndpoint(t *testing.T) {
	s := warmServer(t, Config{TraceEnabled: true, SlowQueryThreshold: time.Nanosecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	getJSON(t, srv, "/v1/partners?user=2&n=4", nil) // miss: full pipeline
	getJSON(t, srv, "/v1/partners?user=2&n=4", nil) // hit: short span

	var sl SlowlogResponse
	if resp := getJSON(t, srv, "/v1/debug/slowlog", &sl); resp.StatusCode != 200 {
		t.Fatalf("/v1/debug/slowlog = %d", resp.StatusCode)
	}
	if !sl.Enabled || sl.Captured < 2 || len(sl.Entries) < 2 {
		t.Fatalf("slowlog = enabled=%v captured=%d entries=%d", sl.Enabled, sl.Captured, len(sl.Entries))
	}
	// Newest first: entry 0 is the cache hit, entry 1 the miss.
	hit, miss := sl.Entries[0], sl.Entries[1]
	if hit.Name != epPartners || hit.Attrs["cache_hit"] != 1 {
		t.Fatalf("hit entry = %+v", hit)
	}
	if miss.Attrs["cache_hit"] != 0 || miss.Attrs["ta_candidates"] <= 0 {
		t.Fatalf("miss entry attrs = %+v", miss.Attrs)
	}
	var stages []string
	for _, st := range miss.Stages {
		stages = append(stages, st.Name)
	}
	// The engine-backed partners path decomposes the search into one
	// explicit-duration stage per shard (shard0 for the default
	// one-shard engine) between the wall-time stages.
	if strings.Join(stages, ",") != "cache,ta_search,shard0,encode" {
		t.Fatalf("miss stages = %v", stages)
	}
	if miss.Attrs["shards"] != 1 {
		t.Fatalf("miss entry shards attr = %+v", miss.Attrs)
	}

	// The tracer's span volume shows up in the exposition.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ebsn_serve_trace_slow_total") {
		t.Fatal("trace counters missing from exposition")
	}
}

// TestSlowlogDisabledByDefault: with tracing off the debug endpoint
// still answers, reporting disabled with an empty (non-null) entry list.
func TestSlowlogDisabledByDefault(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	getJSON(t, srv, "/v1/partners?user=3&n=2", nil)
	var sl SlowlogResponse
	getJSON(t, srv, "/v1/debug/slowlog", &sl)
	if sl.Enabled || sl.Spans != 0 || len(sl.Entries) != 0 {
		t.Fatalf("disabled tracer leaked spans: %+v", sl)
	}
	if sl.Entries == nil {
		t.Fatal("entries rendered as null, want []")
	}
}

// TestDrainProgressObservable pins the graceful-drain fix: the shutdown
// log lines carry the in-flight count and drain duration, and a final
// metrics scrape taken after drain starts reports the draining gauge.
func TestDrainProgressObservable(t *testing.T) {
	var logBuf bytes.Buffer
	s := warmServer(t, Config{DrainTimeout: 2 * time.Second, Logger: log.New(&logBuf, "", 0)})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	if resp, err := http.Get(url + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	// Simulate requests caught mid-flight when the drain begins.
	s.Metrics().AddInFlight(2)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "draining 2 in-flight requests") {
		t.Fatalf("drain start line missing in-flight count:\n%s", logs)
	}
	if !strings.Contains(logs, "drain complete in") || !strings.Contains(logs, "(2 requests were in flight)") {
		t.Fatalf("drain completion line missing progress:\n%s", logs)
	}

	// The "final scrape": the handler outlives the listener, and the
	// draining gauge stays up in the exposition it renders.
	req := httptest.NewRequest("GET", "/metrics", nil)
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	if !strings.Contains(rw.Body.String(), "ebsn_serve_draining 1") {
		t.Fatal("draining gauge not visible in post-drain scrape")
	}
	var m ServerMetrics
	rw2 := httptest.NewRecorder()
	s.ServeHTTP(rw2, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if err := json.NewDecoder(rw2.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !m.Draining || m.InFlight != 2 {
		t.Fatalf("JSON view draining=%v in_flight=%d, want true/2", m.Draining, m.InFlight)
	}
}

// TestCacheBytesGauge follows ebsn_serve_cache_bytes through a served
// put, a generation bump (the orphaned body stays resident until LRU
// pressure or the TTL reclaims it) and an LRU eviction, in a cache of
// two entries.
func TestCacheBytesGauge(t *testing.T) {
	s := privateServer(t, Config{CacheCapacity: 2, CacheShards: 1})
	srv := httptest.NewServer(s)
	defer srv.Close()
	check := func(stage string, want int) {
		t.Helper()
		samples, err := obs.ParseText(strings.NewReader(getBody(t, srv, "/metrics")))
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range samples {
			if sm.Key() == "ebsn_serve_cache_bytes" {
				if sm.Value != float64(want) {
					t.Fatalf("%s: ebsn_serve_cache_bytes = %v, want %d", stage, sm.Value, want)
				}
				return
			}
		}
		t.Fatalf("%s: ebsn_serve_cache_bytes missing from the exposition", stage)
	}
	check("empty", 0)
	const feed = "/v1/feed?user=3&n=5&m=5"
	old := getBody(t, srv, feed)
	check("one feed cached", len(old))
	ingestTemplateEvent(t, srv)
	fresh := getBody(t, srv, feed)
	check("after a generation bump", len(old)+len(fresh))
	partners := getBody(t, srv, "/v1/partners?user=3&n=5")
	check("after the LRU eviction", len(fresh)+len(partners))
}
