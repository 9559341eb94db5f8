package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"sync"
	"testing"
	"time"

	"ebsn"
)

// testWindows derives two disjoint, non-degenerate time windows from the
// shared model's test events: window a covers the earlier half of the
// start-time range, window b the later half.
func testWindows(t *testing.T, rec *ebsn.Recommender) (a, b ebsn.Constraint) {
	t.Helper()
	events := rec.Split().TestEvents
	starts := make([]time.Time, len(events))
	for i, x := range events {
		starts[i] = rec.Dataset().Events[x].Start
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
	mid := starts[len(starts)/2].Truncate(time.Second)
	// Round-trip through the wire form so the oracle constraints are
	// bit-identical to what the server parses from the query string.
	var err error
	a, err = ebsn.ParseConstraint(
		starts[0].Add(-time.Hour).UTC().Format(time.RFC3339), mid.UTC().Format(time.RFC3339), "")
	if err != nil {
		t.Fatal(err)
	}
	b, err = ebsn.ParseConstraint(
		mid.UTC().Format(time.RFC3339), starts[len(starts)-1].Add(time.Hour).UTC().Format(time.RFC3339), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []ebsn.Constraint{a, b} {
		if _, allowed := rec.CompileConstraint(c); allowed == 0 || allowed == len(events) {
			t.Fatalf("window %+v is degenerate: %d of %d allowed", c, allowed, len(events))
		}
	}
	return a, b
}

// constraintQuery renders c as the from/until/within query parameters.
func constraintQuery(c ebsn.Constraint, user int32, n int) string {
	q := url.Values{}
	q.Set("user", fmt.Sprint(user))
	q.Set("n", fmt.Sprint(n))
	if !c.From.IsZero() {
		q.Set("from", c.From.UTC().Format(time.RFC3339))
	}
	if !c.Until.IsZero() {
		q.Set("until", c.Until.UTC().Format(time.RFC3339))
	}
	if c.RadiusKm > 0 {
		q.Set("within", fmt.Sprintf("%v,%v,%v", c.Center.Lat, c.Center.Lng, c.RadiusKm))
	}
	return q.Encode()
}

// inWindow checks one RFC 3339 start stamp against a time-only window.
func inWindow(t *testing.T, stamp string, c ebsn.Constraint) bool {
	t.Helper()
	ts, err := time.Parse(time.RFC3339, stamp)
	if err != nil {
		t.Fatalf("bad start stamp %q: %v", stamp, err)
	}
	return !ts.Before(c.From) && ts.Before(c.Until)
}

func TestConstrainedEventsEndpoint(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	rec := testRecommender(t)
	a, b := testWindows(t, rec)

	var gotA RankingResponse
	if resp := getJSON(t, srv, "/v1/events?"+constraintQuery(a, 3, 5), &gotA); resp.StatusCode != http.StatusOK {
		t.Fatalf("constrained /v1/events = %d", resp.StatusCode)
	}
	want, err := rec.TopEventsConstrained(3, 5, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotA.Events) != len(want) {
		t.Fatalf("served %d events, library %d", len(gotA.Events), len(want))
	}
	for i := range want {
		if gotA.Events[i].Event != want[i].Event || gotA.Events[i].Score != want[i].Score {
			t.Fatalf("rank %d: served %+v, library %+v", i, gotA.Events[i], want[i])
		}
		if !inWindow(t, gotA.Events[i].Start, a) {
			t.Fatalf("rank %d: event %d outside window", i, gotA.Events[i].Event)
		}
	}

	// A different window must not be served from window a's cache entry.
	var gotB RankingResponse
	getJSON(t, srv, "/v1/events?"+constraintQuery(b, 3, 5), &gotB)
	for i := range gotB.Events {
		if !inWindow(t, gotB.Events[i].Start, b) {
			t.Fatalf("window b rank %d: event %d outside window (cross-constraint cache hit?)", i, gotB.Events[i].Event)
		}
	}

	// Repeat of window a is served (cached or not) with the same payload.
	var again RankingResponse
	getJSON(t, srv, "/v1/events?"+constraintQuery(a, 3, 5), &again)
	if len(again.Events) != len(gotA.Events) {
		t.Fatalf("repeat served %d events, first %d", len(again.Events), len(gotA.Events))
	}
	for i := range gotA.Events {
		if again.Events[i] != gotA.Events[i] {
			t.Fatalf("repeat diverged at rank %d", i)
		}
	}

	if resp := getJSON(t, srv, "/v1/events?user=3&n=5&within=1,2", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed within = %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/v1/events?user=3&n=5&from=not-a-time", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed from = %d, want 400", resp.StatusCode)
	}

	if got := scrape(t, s)[`ebsn_serve_workload_requests_total{kind="constrained"}`]; got < 3 {
		t.Fatalf("workload constrained count = %v, want ≥3", got)
	}
}

func TestConstrainedPartnersEndpoint(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	rec := testRecommender(t)
	a, _ := testWindows(t, rec)

	var got RankingResponse
	if resp := getJSON(t, srv, "/v1/partners?"+constraintQuery(a, 2, 6), &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("constrained /v1/partners = %d", resp.StatusCode)
	}
	want, _, err := rec.TopEventPartnersConstrainedStats(2, 6, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pairs) != len(want) {
		t.Fatalf("served %d pairs, library %d", len(got.Pairs), len(want))
	}
	for i := range want {
		p := got.Pairs[i]
		if p.Event != want[i].Event || p.Partner != want[i].Partner || p.Score != want[i].Score {
			t.Fatalf("rank %d: served %+v, library %+v", i, p, want[i])
		}
		if !inWindow(t, p.Start, a) {
			t.Fatalf("rank %d: event %d outside window", i, p.Event)
		}
	}
}

// TestConstrainedMissCountsInShardMetrics: a constrained /v1/partners
// miss is an engine fan-out like any other, so it moves the shard
// metrics by exactly one fan-out over the default single shard.
func TestConstrainedMissCountsInShardMetrics(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	window, _ := testWindows(t, testRecommender(t))

	before := scrape(t, s)
	if resp := getJSON(t, srv, "/v1/partners?"+constraintQuery(window, 4, 5), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("constrained /v1/partners = %d", resp.StatusCode)
	}
	after := scrape(t, s)
	for _, key := range []string{`ebsn_serve_shard_fanout_total`, `ebsn_serve_shard_searches_total{shard="0"}`} {
		if d := after[key] - before[key]; d != 1 {
			t.Errorf("%s moved by %v on one constrained miss, want 1", key, d)
		}
	}
}

// TestLiveMissCountsInShardMetrics: a /v1/partners/live miss runs an
// engine fan-out, so it moves the shard metrics like a plain miss —
// both before anything is ingested (the plain joint path) and after
// (the base fan-out plus the delta scan).
func TestLiveMissCountsInShardMetrics(t *testing.T) {
	s := privateServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	liveMiss := func(stage string) {
		t.Helper()
		before := scrape(t, s)
		if resp := getJSON(t, srv, "/v1/partners/live?user=3&n=5", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v1/partners/live = %d", stage, resp.StatusCode)
		}
		after := scrape(t, s)
		for _, key := range []string{`ebsn_serve_shard_fanout_total`, `ebsn_serve_shard_searches_total{shard="0"}`} {
			if d := after[key] - before[key]; d != 1 {
				t.Errorf("%s: %s moved by %v on one live miss, want 1", stage, key, d)
			}
		}
	}
	liveMiss("before ingest")
	if resp, _ := postIngest(t, srv, IngestRequest{Events: templateBatch(t, 1)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	liveMiss("after ingest") // the ingest bumped the generation: a miss again
}

func postJSONBody(t *testing.T, srv *httptest.Server, path string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

func TestGroupEventsEndpoint(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	rec := testRecommender(t)

	// Single-member mean group degenerates to the user's own ranking.
	var solo GroupEventsResponse
	if resp := postJSONBody(t, srv, "/v1/group/events",
		GroupEventsRequest{Members: []int32{3}, N: 5}, &solo); resp.StatusCode != http.StatusOK {
		t.Fatalf("group = %d", resp.StatusCode)
	}
	if solo.Strategy != "mean" || solo.N != 5 {
		t.Fatalf("group payload = %+v", solo)
	}
	own, err := rec.TopEvents(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range own {
		if solo.Events[i].Event != own[i].Event {
			t.Fatalf("rank %d: group %d, solo %d", i, solo.Events[i].Event, own[i].Event)
		}
	}

	// Multi-member least misery matches the library exactly.
	var lm GroupEventsResponse
	postJSONBody(t, srv, "/v1/group/events",
		GroupEventsRequest{Members: []int32{0, 1, 2}, N: 4, Strategy: "least-misery"}, &lm)
	want, err := rec.GroupTopEvents([]int32{0, 1, 2}, 4, ebsn.GroupLeastMisery, ebsn.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	if lm.Strategy != "least-misery" || len(lm.Events) != len(want) {
		t.Fatalf("least-misery payload = %+v", lm)
	}
	for i := range want {
		if lm.Events[i].Event != want[i].Event || lm.Events[i].Score != want[i].Score {
			t.Fatalf("rank %d: served %+v, library %+v", i, lm.Events[i], want[i])
		}
	}

	for name, req := range map[string]GroupEventsRequest{
		"empty members":     {N: 5},
		"bad strategy":      {Members: []int32{1}, Strategy: "median"},
		"member range":      {Members: []int32{1, 1 << 20}},
		"bad constraint":    {Members: []int32{1}, Within: "1,2"},
		"inverted window":   {Members: []int32{1}, From: "2012-07-01T00:00:00Z", Until: "2012-06-01T00:00:00Z"},
		"n over cap":        {Members: []int32{1}, N: 10_000},
		"over member limit": {Members: make([]int32, 100)},
	} {
		if resp := postJSONBody(t, srv, "/v1/group/events", req, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", name, resp.StatusCode)
		}
	}

	m := scrape(t, s)
	if got := m[`ebsn_serve_workload_requests_total{kind="group"}`]; got < 2 {
		t.Fatalf("workload group count = %v, want ≥2", got)
	}
	if m[`ebsn_serve_requests_total{endpoint="group_events"}`] == 0 {
		t.Fatal("group_events endpoint not instrumented")
	}
}

func TestFeedEndpoint(t *testing.T) {
	s := warmServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	rec := testRecommender(t)

	var feed FeedResponse
	if resp := getJSON(t, srv, "/v1/feed?user=2&n=4&m=3", &feed); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/feed = %d", resp.StatusCode)
	}
	if feed.User != 2 || feed.N != 4 || feed.M != 3 || len(feed.Items) != 4 {
		t.Fatalf("feed payload = %+v", feed)
	}
	want, err := rec.Feed(2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Dataset()
	for i, it := range feed.Items {
		if it.Event != want[i].Event || it.Score != want[i].Score {
			t.Fatalf("item %d: served (%d, %v), library (%d, %v)", i, it.Event, it.Score, want[i].Event, want[i].Score)
		}
		if it.Start == "" {
			t.Fatalf("item %d missing start", i)
		}
		if len(it.Partners) != len(want[i].Partners) {
			t.Fatalf("item %d: %d partners served, %d from library", i, len(it.Partners), len(want[i].Partners))
		}
		for j, p := range it.Partners {
			wp := want[i].Partners[j]
			if p.Partner != wp.Partner || p.Score != wp.Score {
				t.Fatalf("item %d partner %d: served %+v, library %+v", i, j, p, wp)
			}
			if p.Friend != d.AreFriends(2, p.Partner) {
				t.Fatalf("item %d partner %d: friend flag wrong", i, j)
			}
		}
	}

	// Cached repeat serves the identical payload.
	var again FeedResponse
	getJSON(t, srv, "/v1/feed?user=2&n=4&m=3", &again)
	if len(again.Items) != len(feed.Items) || again.Items[0].Event != feed.Items[0].Event {
		t.Fatalf("cached feed diverged: %+v vs %+v", again.Items[0], feed.Items[0])
	}

	// Default m applies when absent; bad m is rejected.
	var dflt FeedResponse
	getJSON(t, srv, "/v1/feed?user=2&n=2", &dflt)
	if dflt.M != defaultFeedPartners {
		t.Fatalf("default m = %d, want %d", dflt.M, defaultFeedPartners)
	}
	if resp := getJSON(t, srv, "/v1/feed?user=2&n=2&m=0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("m=0 = %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/v1/feed?user=2&n=2&m=100000", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge m = %d, want 400", resp.StatusCode)
	}

	if got := scrape(t, s)[`ebsn_serve_workload_requests_total{kind="feed"}`]; got < 3 {
		t.Fatalf("workload feed count = %v, want ≥3", got)
	}
}

// TestConstrainedPartnersNeverCoalesce is the race-detector target for
// the coalescer bypass: constrained single-user GETs carry per-request
// predicates, so folding them into a shared dispatch would answer some
// against the wrong filter. With coalescing on and a mix of constrained
// (two different windows) and unconstrained traffic in flight, every
// constrained answer must match its own window's exact result, and the
// coalesced-request counter must account for the unconstrained requests
// only — proving no constrained request ever shared a dispatch.
func TestConstrainedPartnersNeverCoalesce(t *testing.T) {
	s := warmServer(t, Config{CoalesceWindow: 10 * time.Millisecond, CoalesceBatch: 16, CacheCapacity: -1})
	srv := httptest.NewServer(s)
	defer srv.Close()
	rec := testRecommender(t)
	a, b := testWindows(t, rec)

	const workers = 12
	var plainRequests uint64
	responses := make([]RankingResponse, workers)
	windows := make([]ebsn.Constraint, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := int32(w % 6)
			switch w % 3 {
			case 0:
				// Unconstrained: rides the coalescer.
				if resp := getJSON(t, srv, fmt.Sprintf("/v1/partners?user=%d&n=5", user), &responses[w]); resp.StatusCode != http.StatusOK {
					t.Errorf("plain GET = %d", resp.StatusCode)
				}
			case 1:
				windows[w] = a
				if resp := getJSON(t, srv, "/v1/partners?"+constraintQuery(a, user, 5), &responses[w]); resp.StatusCode != http.StatusOK {
					t.Errorf("window-a GET = %d", resp.StatusCode)
				}
			case 2:
				windows[w] = b
				if resp := getJSON(t, srv, "/v1/partners?"+constraintQuery(b, user, 5), &responses[w]); resp.StatusCode != http.StatusOK {
					t.Errorf("window-b GET = %d", resp.StatusCode)
				}
			}
		}(w)
	}
	for w := 0; w < workers; w += 3 {
		plainRequests++
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		if w%3 == 0 {
			continue
		}
		c := windows[w]
		user := int32(w % 6)
		want, _, err := rec.TopEventPartnersConstrainedStats(user, 5, c)
		if err != nil {
			t.Fatal(err)
		}
		got := responses[w].Pairs
		if len(got) != len(want) {
			t.Fatalf("worker %d: %d pairs served, %d from library", w, len(got), len(want))
		}
		for i := range want {
			if got[i].Event != want[i].Event || got[i].Partner != want[i].Partner || got[i].Score != want[i].Score {
				t.Fatalf("worker %d rank %d: served %+v, want %+v — predicate leaked across a dispatch", w, i, got[i], want[i])
			}
			if !inWindow(t, got[i].Start, c) {
				t.Fatalf("worker %d rank %d: event outside its own window", w, i)
			}
		}
	}

	m := scrape(t, s)
	if got := m[`ebsn_serve_coalesced_requests_total`]; got != float64(plainRequests) {
		t.Fatalf("coalesced requests = %v, want exactly the %d unconstrained ones — a constrained request entered a dispatch",
			got, plainRequests)
	}
	if got := m[`ebsn_serve_workload_requests_total{kind="constrained"}`]; got != float64(workers-int(plainRequests)) {
		t.Fatalf("workload constrained = %v, want %d", got, workers-int(plainRequests))
	}
}
