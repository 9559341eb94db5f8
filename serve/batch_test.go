package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ebsn"
)

func postBatch(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, *BatchRankingResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BatchRankingResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp, &out
}

// samePairs compares two served rankings field by field. Scores are
// float32 and JSON round-trips them exactly, so equality is exact.
func samePairs(t *testing.T, label string, want, got []PairResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d pairs", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: rank %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestBatchEndpointsMatchSingle(t *testing.T) {
	s := warmServer(t, Config{Shards: 2})
	srv := httptest.NewServer(s)
	defer srv.Close()

	users := []int32{0, 3, 1, 5}
	resp, batch := postBatch(t, srv, "/v1/partners", BatchQueryRequest{Users: users, N: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/partners = %d", resp.StatusCode)
	}
	if batch.N != 5 || len(batch.Results) != len(users) {
		t.Fatalf("batch payload = %+v", batch)
	}
	for j, u := range users {
		var single RankingResponse
		getJSON(t, srv, fmt.Sprintf("/v1/partners?user=%d&n=5", u), &single)
		samePairs(t, fmt.Sprintf("user %d batch vs single", u), single.Pairs, batch.Results[j].Pairs)
	}

	resp, batch = postBatch(t, srv, "/v1/events", BatchQueryRequest{Users: users, N: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/events = %d", resp.StatusCode)
	}
	for j, u := range users {
		var single RankingResponse
		getJSON(t, srv, fmt.Sprintf("/v1/events?user=%d&n=4", u), &single)
		if len(single.Events) != len(batch.Results[j].Events) {
			t.Fatalf("user %d: %d vs %d events", u, len(batch.Results[j].Events), len(single.Events))
		}
		for i := range single.Events {
			if single.Events[i] != batch.Results[j].Events[i] {
				t.Fatalf("user %d rank %d: %+v vs %+v", u, i, batch.Results[j].Events[i], single.Events[i])
			}
		}
	}

	// Omitted n falls back to defaultN.
	if _, b := postBatch(t, srv, "/v1/partners", BatchQueryRequest{Users: []int32{2}}); b.N != 10 {
		t.Fatalf("default batch n = %d, want 10", b.N)
	}

	m := scrape(t, s)
	if m[`ebsn_serve_batch_size_count`] < 3 || m[`ebsn_serve_batch_size_sum`] <= 0 {
		t.Fatalf("batch dispatches = %v (sum %v), want ≥3", m[`ebsn_serve_batch_size_count`], m[`ebsn_serve_batch_size_sum`])
	}
	if mean := s.Metrics().Snapshot().Batch.MeanSize; mean != m[`ebsn_serve_batch_size_sum`]/m[`ebsn_serve_batch_size_count`] {
		t.Fatalf("Snapshot().Batch.MeanSize = %v, exposition mean %v", mean, m[`ebsn_serve_batch_size_sum`]/m[`ebsn_serve_batch_size_count`])
	}
	if m[`ebsn_serve_requests_total{endpoint="partners_batch"}`] != 2 || m[`ebsn_serve_requests_total{endpoint="events_batch"}`] != 1 {
		t.Fatalf("batch endpoint counters = %v/%v, want 2/1",
			m[`ebsn_serve_requests_total{endpoint="partners_batch"}`], m[`ebsn_serve_requests_total{endpoint="events_batch"}`])
	}
}

func TestBatchValidationAndCaps(t *testing.T) {
	s := warmServer(t, Config{MaxBatch: 4})
	srv := httptest.NewServer(s)
	defer srv.Close()

	for _, tc := range []struct {
		name string
		body string
	}{
		{"over cap", `{"users":[0,1,2,3,4]}`},
		{"empty users", `{"users":[]}`},
		{"missing users", `{}`},
		{"bad user", `{"users":[999999]}`},
		{"negative user", `{"users":[-1]}`},
		{"bad n", `{"users":[1],"n":1000}`},
		{"negative n", `{"users":[1],"n":-2}`},
		{"unknown field", `{"users":[1],"bogus":true}`},
		{"malformed", `{"users":`},
	} {
		for _, path := range []string{"/v1/partners", "/v1/events"} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s = %d, want 400 (never 500)", tc.name, path, resp.StatusCode)
			}
		}
	}
	m := scrape(t, s)
	if got := m[`ebsn_serve_batch_rejected_total`]; got != 2 { // one over-cap rejection per endpoint
		t.Fatalf("batch rejections = %v, want 2", got)
	}
	if got := m[`ebsn_serve_batch_size_count`]; got != 0 {
		t.Fatalf("dispatches = %v after pure-rejection traffic", got)
	}
}

// TestCoalescedPartnersMatchSingle drives concurrent single-user GETs
// through the micro-batching coalescer and checks that every answer is
// identical to the uncoalesced path — coalescing must be invisible.
func TestCoalescedPartnersMatchSingle(t *testing.T) {
	// Generous window so concurrent arrivals reliably share batches; the
	// cap keeps dispatches at ≤4 users. Cache off so every request takes
	// the coalesced path.
	s := warmServer(t, Config{CoalesceWindow: 20 * time.Millisecond, CoalesceBatch: 4, CacheCapacity: -1})
	srv := httptest.NewServer(s)
	defer srv.Close()
	rec := testRecommender(t)

	const nb = 8
	responses := make([]RankingResponse, nb)
	var wg sync.WaitGroup
	for u := 0; u < nb; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if resp := getJSON(t, srv, fmt.Sprintf("/v1/partners?user=%d&n=6", u), &responses[u]); resp.StatusCode != http.StatusOK {
				t.Errorf("coalesced /v1/partners user %d = %d", u, resp.StatusCode)
			}
		}(u)
	}
	wg.Wait()

	for u := 0; u < nb; u++ {
		lanes, _, err := rec.Recommend([]int32{int32(u)}, 6, ebsn.Constraint{})
		if err != nil {
			t.Fatal(err)
		}
		want := lanes[0]
		got := responses[u].Pairs
		if len(got) != len(want) {
			t.Fatalf("user %d: %d vs %d pairs", u, len(got), len(want))
		}
		for i := range want {
			if got[i].Event != want[i].Event || got[i].Partner != want[i].Partner || got[i].Score != want[i].Score {
				t.Fatalf("user %d rank %d: served %+v, library %+v", u, i, got[i], want[i])
			}
		}
	}

	m := scrape(t, s)
	if got := m[`ebsn_serve_coalesced_requests_total`]; got != nb {
		t.Fatalf("coalesced requests = %v, want %d", got, nb)
	}
	// Cap 4 over 8 requests means at least two dispatches; scheduling
	// decides the exact widths.
	dispatches := m[`ebsn_serve_batch_size_count`]
	if dispatches < 2 {
		t.Fatalf("dispatches = %v, want ≥2", dispatches)
	}
	mean := m[`ebsn_serve_batch_size_sum`] / dispatches
	if mean <= 0 || mean > 4 {
		t.Fatalf("mean batch size = %v, want in (0,4]", mean)
	}
	if got := s.Metrics().Snapshot().Batch.MeanSize; got != mean {
		t.Fatalf("Snapshot().Batch.MeanSize = %v, exposition mean %v", got, mean)
	}
}

// TestCoalescedMixedNPrefix checks the mixed-n coalescing contract: a
// window holding n=3 and n=9 requests runs once at n=9, and the n=3
// answer is the exact prefix of the n=9 one.
func TestCoalescedMixedNPrefix(t *testing.T) {
	s := warmServer(t, Config{CoalesceWindow: 20 * time.Millisecond, CoalesceBatch: 2, CacheCapacity: -1})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var small, large RankingResponse
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); getJSON(t, srv, "/v1/partners?user=4&n=3", &small) }()
	go func() { defer wg.Done(); getJSON(t, srv, "/v1/partners?user=4&n=9", &large) }()
	wg.Wait()

	if len(small.Pairs) > 3 || len(large.Pairs) > 9 || len(large.Pairs) < len(small.Pairs) {
		t.Fatalf("pair counts: n=3 got %d, n=9 got %d", len(small.Pairs), len(large.Pairs))
	}
	samePairs(t, "n=3 prefix of n=9", large.Pairs[:len(small.Pairs)], small.Pairs)
}

// TestCoalescedConcurrentWithCompactionAndReload is the race-detector
// target for the batched admission layer: coalesced GETs and explicit
// POST batches run against concurrent ingest, background compaction and
// model reloads. Every response must succeed — swaps never surface as
// errors, and the dispatcher's read lock must interleave cleanly with
// the write-lock swap points.
func TestCoalescedConcurrentWithCompactionAndReload(t *testing.T) {
	snapPath := saveTestSnapshot(t)
	s := warmServer(t, Config{
		CoalesceWindow: 500 * time.Microsecond,
		CoalesceBatch:  8,
		SnapshotPath:   snapPath,
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				if (w+i)%3 == 0 {
					resp, _ := postBatch(t, srv, "/v1/partners",
						BatchQueryRequest{Users: []int32{int32(i % 8), int32((i + 1) % 8)}, N: 5})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("POST batch = %d during swaps", resp.StatusCode)
					}
				} else {
					if resp := getJSON(t, srv, fmt.Sprintf("/v1/partners?user=%d&n=5", (w+i)%8), nil); resp.StatusCode != http.StatusOK {
						t.Errorf("coalesced GET = %d during swaps", resp.StatusCode)
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			ingestTemplateEvent(t, srv)
			// wait=1 keeps the fold from outliving the test (the shared
			// recommender must not be compacted under a later server).
			resp, err := http.Post(srv.URL+"/v1/compact?wait=1", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			resp, err = http.Post(srv.URL+"/v1/reload", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload = %d", resp.StatusCode)
			}
		}
	}()
	// A hit waits for nobody, swaps or no swaps: warm a key, take the
	// model's write lock and ask again. The answer must come while the
	// lock is held — unless one of the swaps above moved the generation
	// after the warm-up, which makes the request a miss that rightly
	// queues behind the lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const path = "/v1/partners?user=9&n=5"
		for i := 0; i < 20; i++ {
			gen := s.Generation()
			_, want := serveDirect(s, path)
			s.mu.Lock()
			done := make(chan string, 1)
			go func() {
				_, body := serveDirect(s, path)
				done <- body
			}()
			select {
			case body := <-done:
				if body != want {
					t.Errorf("hit behind the write lock = %q, want %q", body, want)
				}
			case <-time.After(2 * time.Second):
				if s.Generation() == gen {
					t.Error("a hit waited for the model lock")
				}
			}
			s.mu.Unlock()
		}
	}()
	wg.Wait()
}

// TestQuantizedServer pins Config.Quantized, which remains only for the
// benchmark harness: it is ignored, so a server with it set answers
// single and batched /v1/partners byte for byte like an exact server.
// Each server reloads its own recommender, so neither shares the
// other's engine.
func TestQuantizedServer(t *testing.T) {
	exact := httptest.NewServer(privateServer(t, Config{Shards: 2}))
	defer exact.Close()
	quant := httptest.NewServer(privateServer(t, Config{Quantized: true, Shards: 2}))
	defer quant.Close()

	for u := 0; u < 8; u++ {
		path := fmt.Sprintf("/v1/partners?user=%d&n=5", u)
		if got, want := getBody(t, quant, path), getBody(t, exact, path); got != want {
			t.Fatalf("%s: Quantized server %s, exact server %s", path, got, want)
		}
	}
	body, err := json.Marshal(BatchQueryRequest{Users: []int32{1, 2, 3}, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	post := func(srv *httptest.Server) string {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/partners", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/partners = %d: %s", resp.StatusCode, buf.String())
		}
		return buf.String()
	}
	if got, want := post(quant), post(exact); got != want {
		t.Fatalf("batched /v1/partners: Quantized server %s, exact server %s", got, want)
	}
}

// TestJointEndpointsServeLiveEvents checks that every joint endpoint
// answers over the live tier: after an ingest, GET /v1/partners with the
// coalescer off and with the default window, a constrained GET and a
// batch POST each return what Recommend returns, pair for pair, and
// each of the four holds live IDs for some user.
func TestJointEndpointsServeLiveEvents(t *testing.T) {
	// The window allows the test events of the last two months and the
	// first four ingested events, which start on 2013-03-01..04.
	c := ebsn.Constraint{From: time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC), Until: time.Date(2013, 3, 5, 0, 0, 0, 0, time.UTC)}
	users := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	const n = 10
	for _, window := range []time.Duration{0, DefaultConfig().CoalesceWindow} {
		s := privateServer(t, Config{CoalesceWindow: window, CacheCapacity: -1})
		srv := httptest.NewServer(s)
		if resp, _ := postIngest(t, srv, IngestRequest{Events: templateBatch(t, 8)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest = %d", resp.StatusCode)
		}
		s.mu.RLock()
		rec := s.rec
		s.mu.RUnlock()
		plain, _, err := rec.Recommend(users, n, ebsn.Constraint{})
		if err != nil {
			t.Fatal(err)
		}
		constrained, _, err := rec.Recommend(users, n, c)
		if err != nil {
			t.Fatal(err)
		}
		live := map[string]bool{}
		check := func(kind string, u int32, want []ebsn.PairRecommendation, got []PairResult) {
			t.Helper()
			samePairs(t, fmt.Sprintf("window=%v %s user %d", window, kind, u), encodePairs(rec.Dataset(), u, n, want).Pairs, got)
			for _, p := range got {
				live[kind] = live[kind] || p.Event < 0
			}
		}
		_, batch := postBatch(t, srv, "/v1/partners", BatchQueryRequest{Users: users, N: n})
		for j, u := range users {
			var get, cget RankingResponse
			getJSON(t, srv, fmt.Sprintf("/v1/partners?user=%d&n=%d", u, n), &get)
			getJSON(t, srv, "/v1/partners?"+constraintQuery(c, u, n), &cget)
			check("GET", u, plain[j], get.Pairs)
			check("constrained GET", u, constrained[j], cget.Pairs)
			check("batch POST", u, plain[j], batch.Results[j].Pairs)
		}
		srv.Close()
		for _, kind := range []string{"GET", "constrained GET", "batch POST"} {
			if !live[kind] {
				t.Errorf("window=%v: no %s answer holds a live event", window, kind)
			}
		}
	}
}
