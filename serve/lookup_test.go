package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"ebsn"
)

// privateServer is warmServer followed by a reload from a snapshot of
// the shared model, so the server owns its recommender: handlers a test
// abandons (the timeout tests do) cannot touch the one later tests share.
func privateServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.SnapshotPath = saveTestSnapshot(t)
	s := warmServer(t, cfg)
	if err := s.Reload(""); err != nil {
		t.Fatal(err)
	}
	return s
}

// serveDirect calls the server in-process and returns status and body.
func serveDirect(s *Server, path string) (int, string) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w.Code, w.Body.String()
}

func post(t *testing.T, srv *httptest.Server, path string) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, body)
	}
}

// wireJSON is what writeJSON has always sent for v: json.Marshal plus the
// encoder's newline.
func wireJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// cachedGET is one row of the table over every cacheable GET: the path
// and the wire struct the facade's own answer renders to.
type cachedGET struct {
	name, ep, path string
	want           func(rec *ebsn.Recommender) any
}

func cachedGETs(t *testing.T) []cachedGET {
	rec := testRecommender(t)
	const user, n, m = 3, 4, 2
	window, _ := testWindows(t, rec)
	d := rec.Dataset()
	near := ebsn.Constraint{Center: d.Venues[d.Events[rec.Split().TestEvents[0]].Venue], RadiusKm: 5}
	if _, allowed := rec.CompileConstraint(near); allowed == 0 {
		t.Fatal("the geo constraint allows no event")
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	events := func(c ebsn.Constraint) func(*ebsn.Recommender) any {
		return func(rec *ebsn.Recommender) any {
			recs, err := rec.TopEventsConstrained(user, n, c)
			must(err)
			return encodeEvents(rec.Dataset(), user, n, recs)
		}
	}
	pairs := func(c ebsn.Constraint) func(*ebsn.Recommender) any {
		return func(rec *ebsn.Recommender) any {
			ps, err := rec.TopEventPartnersConstrained(user, n, c)
			must(err)
			return encodePairs(rec.Dataset(), user, n, ps)
		}
	}
	plain := fmt.Sprintf("user=%d&n=%d", user, n)
	return []cachedGET{
		{"events", epEvents, "/v1/events?" + plain, events(ebsn.Constraint{})},
		{"events in a window", epEvents, "/v1/events?" + constraintQuery(window, user, n), events(window)},
		{"partners", epPartners, "/v1/partners?" + plain, pairs(ebsn.Constraint{})},
		{"partners in a window", epPartners, "/v1/partners?" + constraintQuery(window, user, n), pairs(window)},
		{"partners in a radius", epPartners, "/v1/partners?" + constraintQuery(near, user, n), pairs(near)},
		{"live", epPartnersLive, "/v1/partners/live?" + plain, func(rec *ebsn.Recommender) any {
			ps, err := rec.TopEventPartnersLive(user, n)
			must(err)
			return encodePairs(rec.Dataset(), user, n, ps)
		}},
		{"feed", epFeed, fmt.Sprintf("/v1/feed?%s&m=%d", plain, m), func(rec *ebsn.Recommender) any {
			items, err := rec.Feed(user, n, m)
			must(err)
			d := rec.Dataset()
			resp := &FeedResponse{User: user, N: n, M: m, Items: []FeedItemResult{}}
			for _, it := range items {
				fr := FeedItemResult{Event: it.Event, Start: d.Events[it.Event].Start.Format(time.RFC3339),
					Score: it.Score, Partners: []FeedPartnerResult{}}
				for _, p := range it.Partners {
					fr.Partners = append(fr.Partners, FeedPartnerResult{Partner: p.Partner, Friend: d.AreFriends(user, p.Partner), Score: p.Score})
				}
				resp.Items = append(resp.Items, fr)
			}
			return resp
		}},
	}
}

// TestCachedBodiesByteIdenticalAndDieWithGeneration runs every cacheable
// GET, coalescer off and on: the miss body, the hit body and
// json.Marshal of the wire struct are the same bytes; the hit is a span
// carrying cache_hit=1; and no hit survives an ingest, a landed
// compaction or a reload.
func TestCachedBodiesByteIdenticalAndDieWithGeneration(t *testing.T) {
	for _, window := range []time.Duration{0, 300 * time.Microsecond} {
		t.Run(fmt.Sprint("coalesce ", window), func(t *testing.T) {
			s := warmServer(t, Config{
				CoalesceWindow: window, SnapshotPath: saveTestSnapshot(t),
				TraceEnabled: true, SlowQueryThreshold: time.Nanosecond,
			})
			srv := httptest.NewServer(s)
			defer srv.Close()
			rows := cachedGETs(t)

			// get asks for one row and says whether the cache answered.
			get := func(row cachedGET) (body string, hit bool) {
				t.Helper()
				h0, m0 := s.Cache().Stats()
				body = getBody(t, srv, row.path)
				h1, m1 := s.Cache().Stats()
				if (h1-h0)+(m1-m0) != 1 {
					t.Fatalf("%s: one request moved the cache counters by %d hits and %d misses", row.name, h1-h0, m1-m0)
				}
				return body, h1 > h0
			}
			for _, row := range rows {
				want := wireJSON(t, row.want(testRecommender(t)))
				miss, hit := get(row)
				if hit {
					t.Fatalf("%s: first request hit", row.name)
				}
				if miss != want {
					t.Fatalf("%s: miss body\n%s\nwant\n%s", row.name, miss, want)
				}
				again, hit := get(row)
				if !hit {
					t.Fatalf("%s: second request missed", row.name)
				}
				if again != miss {
					t.Fatalf("%s: hit body\n%s\nmiss body\n%s", row.name, again, miss)
				}
				if e := s.Tracer().SlowLog().Snapshot()[0]; e.Name != row.ep || e.Attrs["cache_hit"] != 1 {
					t.Fatalf("%s: the hit's span is %+v", row.name, e)
				}
			}

			for _, bump := range []struct {
				name string
				do   func()
			}{
				{"ingest", func() { ingestTemplateEvent(t, srv) }},
				{"compact", func() { post(t, srv, "/v1/compact?wait=1") }},
				{"reload", func() { post(t, srv, "/v1/reload") }},
			} {
				gen := s.Generation()
				bump.do()
				if s.Generation() != gen+1 {
					t.Fatalf("%s moved the generation %d → %d", bump.name, gen, s.Generation())
				}
				for _, row := range rows {
					if _, hit := get(row); hit {
						t.Fatalf("%s: a hit survived %s", row.name, bump.name)
					}
					if _, hit := get(row); !hit {
						t.Fatalf("%s: not cached again after %s", row.name, bump.name)
					}
				}
			}
		})
	}
}

// TestBadParameterBodies pins the 400 bodies of the cacheable GETs, byte
// for byte, including which parameter is blamed when several are wrong.
func TestBadParameterBodies(t *testing.T) {
	s := warmServer(t, Config{CoalesceWindow: 200 * time.Microsecond})
	users := testRecommender(t).Dataset().NumUsers
	badUser := fmt.Sprintf("invalid or missing user parameter (0 ≤ user < %d)", users)
	const badN, badM = "invalid n parameter (1 ≤ n ≤ 100)", "invalid m parameter (1 ≤ m ≤ 100)"
	constraintErr := func(from, until, within string) string {
		_, err := ebsn.ParseConstraint(from, until, within)
		if err == nil {
			t.Fatalf("constraint %q %q %q parses", from, until, within)
		}
		return err.Error()
	}
	for _, tc := range []struct{ path, msg string }{
		{"/v1/events", badUser},
		{"/v1/events?user=abc", badUser},
		{"/v1/partners?user=-1", badUser},
		{fmt.Sprintf("/v1/partners?user=%d", users), badUser},
		{"/v1/partners/live?user=99999999999", badUser},
		{fmt.Sprintf("/v1/feed?user=%d&n=0&m=0", users), badUser}, // the user is checked first
		{"/v1/events?user=3&n=0", badN},
		{"/v1/partners?user=3&n=101", badN},
		{"/v1/partners/live?user=3&n=x", badN},
		{"/v1/feed?user=3&n=-2&m=0", badN}, // then n
		{"/v1/feed?user=3&m=0", badM},
		{"/v1/feed?user=3&n=5&m=101", badM},
		{"/v1/events?user=3&from=yesterday", constraintErr("yesterday", "", "")},
		{"/v1/partners?user=3&until=soon", constraintErr("", "soon", "")},
		{"/v1/partners?user=3&within=1,2", constraintErr("", "", "1,2")},
		{"/v1/events?user=abc&n=0&within=here", constraintErr("", "", "here")}, // constraints before all
	} {
		status, body := serveDirect(s, tc.path)
		if want := wireJSON(t, map[string]string{"error": tc.msg}); status != http.StatusBadRequest || body != want {
			t.Errorf("%s = %d %q, want 400 %q", tc.path, status, body, want)
		}
	}
	if hits, misses := s.Cache().Stats(); hits != 0 {
		t.Errorf("bad requests produced %d hits (%d misses)", hits, misses)
	}
}

// TestTimedOutRequestCountsAs503: the endpoint metrics must record what
// the client got. The status recorder used to sit inside the timeout
// wrapper, where it saw the abandoned handler's 200.
func TestTimedOutRequestCountsAs503(t *testing.T) {
	s := privateServer(t, Config{RequestTimeout: time.Nanosecond, CacheCapacity: -1})
	if status, body := serveDirect(s, "/v1/partners?user=3&n=5"); status != http.StatusServiceUnavailable {
		t.Fatalf("GET under a 1ns timeout = %d %s, want 503", status, body)
	}
	if ep := s.Metrics().Snapshot().Endpoints[epPartners]; ep.Count != 1 || ep.Status5xx != 1 {
		t.Fatalf("endpoint metrics after one timed-out request: %+v, want Count 1, Status5xx 1", ep)
	}
}

// TestHitWaitsForNobody: a cache hit takes neither the model lock nor the
// request timeout; a miss takes both.
func TestHitWaitsForNobody(t *testing.T) {
	const warm, cold = "/v1/partners?user=3&n=5", "/v1/partners?user=4&n=5"

	t.Run("behind the write lock", func(t *testing.T) {
		s := warmServer(t, Config{})
		_, want := serveDirect(s, warm)
		s.mu.Lock()
		if status, body := serveDirect(s, warm); status != http.StatusOK || body != want {
			s.mu.Unlock()
			t.Fatalf("hit with the write lock held = %d %q, want 200 %q", status, body, want)
		}
		done := make(chan int, 1)
		go func() {
			status, _ := serveDirect(s, cold)
			done <- status
		}()
		select {
		case status := <-done:
			s.mu.Unlock()
			t.Fatalf("miss answered %d with the write lock held", status)
		case <-time.After(20 * time.Millisecond):
		}
		s.mu.Unlock()
		if status := <-done; status != http.StatusOK {
			t.Fatalf("miss after Unlock = %d", status)
		}
	})

	t.Run("under a 1ns timeout", func(t *testing.T) {
		s := privateServer(t, Config{RequestTimeout: time.Nanosecond})
		// Every compute stage times out here, so the entry is put there
		// by hand under the key the lookup stage builds.
		const seeded = "{\"seeded\":true}\n"
		vals, _ := url.ParseQuery("user=3&n=5")
		seed := func() { s.cache.Put(s.newQuery(epPartners, vals, ebsn.Constraint{}, false).key, []byte(seeded)) }
		seed()
		if status, body := serveDirect(s, warm); status != http.StatusOK || body != seeded {
			t.Fatalf("hit = %d %q, want 200 and the cached bytes", status, body)
		}
		if status, _ := serveDirect(s, cold); status != http.StatusServiceUnavailable {
			t.Fatalf("miss = %d, want 503", status)
		}
		// The same with reloads swapping the model underneath: a request
		// is either a hit (on the seeded bytes, or on the body a timed-out
		// compute stage went on to cache) or, when a reload moved the
		// generation after the seeding, a timed-out miss.
		reloaded := make(chan error, 1)
		go func() {
			var err error
			for i := 0; i < 3 && err == nil; i++ {
				err = s.Reload("")
			}
			reloaded <- err
		}()
		hits := 0
		for running := true; running; {
			select {
			case err := <-reloaded:
				if err != nil {
					t.Fatal(err)
				}
				running = false
			default:
			}
			seed()
			switch status, body := serveDirect(s, warm); status {
			case http.StatusOK:
				hits++
			case http.StatusServiceUnavailable:
			default:
				t.Fatalf("during reloads: %d %q", status, body)
			}
		}
		if hits == 0 {
			t.Fatal("no request hit while the reloads ran")
		}
	})
}
