package serve

import (
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ebsn/internal/obs"
)

// TestMetricsPrometheusDefault exercises the real /metrics endpoint end
// to end: it is valid Prometheus text carrying both the request panel
// and the scrape-time state instruments, and it has one form — a
// ?format=json scrape gets the same exposition.
func TestMetricsPrometheusDefault(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	getJSON(t, srv, "/v1/events?user=1&n=3", nil)
	getJSON(t, srv, "/v1/partners?user=1&n=3", nil)

	for _, target := range []string{"/metrics", "/metrics?format=json"} {
		resp := getJSON(t, srv, target, nil)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("%s content type = %q, want the text exposition", target, ct)
		}
	}
	got := scrape(t, s)
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

	asJSON := scrapeTarget(t, s, "/metrics?format=json")
	if len(got) != len(asJSON) {
		t.Fatalf("plain scrape has %d samples, ?format=json %d", len(got), len(asJSON))
	}
	for key, v := range got {
		w, ok := asJSON[key]
		if !ok {
			t.Fatalf("?format=json scrape lacks %s", key)
		}
		// Uptime and the runtime families move between two scrapes.
		if strings.HasPrefix(key, "ebsn_serve_") && key != "ebsn_serve_uptime_seconds" && w != v {
			t.Errorf("%s = %v plain, %v with ?format=json", key, v, w)
		}
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
	m := scrape(t, s)
	if m[`ebsn_serve_draining`] != 1 || m[`ebsn_serve_in_flight`] != 2 {
		t.Fatalf("post-drain scrape draining=%v in_flight=%v, want 1/2", m[`ebsn_serve_draining`], m[`ebsn_serve_in_flight`])
	}
}

// TestOperationsDocumentsEveryFamily holds OPERATIONS.md and the
// registry to each other after one request of every kind: each family
// on /metrics has a row in a metric table (a go_memstats_* or go_gc_*
// row covers the families it prefixes), and each ebsn_serve_* or
// ebsn_mapped_bytes name the document mentions is a family, or a
// _bucket, _sum or _count sample of one.
func TestOperationsDocumentsEveryFamily(t *testing.T) {
	s := privateServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	window, _ := testWindows(t, testRecommender(t))
	for _, path := range []string{
		"/v1/events?user=1&n=3",
		"/v1/partners?user=1&n=3",
		"/v1/partners?" + constraintQuery(window, 1, 3),
		"/v1/partners/live?user=1&n=3",
		"/v1/explain?user=1&partner=2&event=3",
		"/v1/feed?user=1&n=2&m=2",
	} {
		getBody(t, srv, path)
	}
	for path, body := range map[string]any{
		"/v1/events":       BatchQueryRequest{Users: []int32{1, 2}},
		"/v1/partners":     BatchQueryRequest{Users: []int32{1, 2}},
		"/v1/group/events": GroupEventsRequest{Members: []int32{1, 2}},
	} {
		if resp := postJSONBody(t, srv, path, body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d", path, resp.StatusCode)
		}
	}
	ingestTemplateEvent(t, srv)
	post(t, srv, "/v1/compact?wait=1")

	families := map[string]bool{}
	for _, line := range strings.Split(getBody(t, srv, "/metrics"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = true
		}
	}
	doc, err := os.ReadFile("../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string // the backquoted names in each table row's first cell
	quoted := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(string(doc), "\n") {
		if cells := strings.SplitN(line, "|", 3); len(cells) == 3 && cells[0] == "" {
			for _, m := range quoted.FindAllStringSubmatch(cells[1], -1) {
				rows = append(rows, m[1])
			}
		}
	}
	for fam := range families {
		documented := false
		for _, r := range rows {
			if r == fam || strings.HasSuffix(r, "*") && strings.HasPrefix(fam, strings.TrimSuffix(r, "*")) {
				documented = true
			}
		}
		if !documented {
			t.Errorf("family %s has no row in OPERATIONS.md", fam)
		}
	}
	for _, name := range regexp.MustCompile(`ebsn_serve_\w+|ebsn_mapped_bytes`).FindAllString(string(doc), -1) {
		known := families[name]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			known = known || strings.HasSuffix(name, suffix) && families[strings.TrimSuffix(name, suffix)]
		}
		if !known {
			t.Errorf("OPERATIONS.md names %s, which is no family on /metrics", name)
		}
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
