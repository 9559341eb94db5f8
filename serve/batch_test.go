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

	// Omitted n falls back to DefaultN.
	if _, b := postBatch(t, srv, "/v1/partners", BatchQueryRequest{Users: []int32{2}}); b.N != 10 {
		t.Fatalf("default batch n = %d, want 10", b.N)
	}

	var m ServerMetrics
	getJSON(t, srv, "/metrics?format=json", &m)
	if m.Batch.Dispatches < 3 || m.Batch.MeanSize <= 0 {
		t.Fatalf("batch metrics = %+v, want ≥3 dispatches", m.Batch)
	}
	if m.Endpoints["partners_batch"].Count != 2 || m.Endpoints["events_batch"].Count != 1 {
		t.Fatalf("batch endpoint counters = %+v", m.Endpoints)
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
	var m ServerMetrics
	getJSON(t, srv, "/metrics?format=json", &m)
	if m.Batch.Rejected != 2 { // one over-cap rejection per endpoint
		t.Fatalf("batch rejections = %d, want 2", m.Batch.Rejected)
	}
	if m.Batch.Dispatches != 0 {
		t.Fatalf("dispatches = %d after pure-rejection traffic", m.Batch.Dispatches)
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
		want, err := rec.TopEventPartnersSharded(int32(u), 6)
		if err != nil {
			t.Fatal(err)
		}
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

	var m ServerMetrics
	getJSON(t, srv, "/metrics?format=json", &m)
	if m.Batch.CoalescedRequests != nb {
		t.Fatalf("coalesced requests = %d, want %d", m.Batch.CoalescedRequests, nb)
	}
	// Cap 4 over 8 requests means at least two dispatches; scheduling
	// decides the exact widths.
	if m.Batch.Dispatches < 2 {
		t.Fatalf("dispatches = %d, want ≥2", m.Batch.Dispatches)
	}
	if m.Batch.MeanSize <= 0 || m.Batch.MeanSize > 4 {
		t.Fatalf("mean batch size = %v, want in (0,4]", m.Batch.MeanSize)
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

// TestQuantizedServer exercises the Config.Quantized wiring end to end
// on a throwaway model (tiny budget — only the routing matters): Warm
// enables the int8 mirrors, single and batched answers agree bit for
// bit, and the quantized gauge is exposed.
func TestQuantizedServer(t *testing.T) {
	rec, err := ebsn.New(ebsn.Config{City: ebsn.CityTiny, Seed: 11, Threads: 4, TrainSteps: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	s := New(rec, Config{Quantized: true, Shards: 2})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if !rec.QuantizedQueries() {
		t.Fatal("Warm did not enable quantized queries")
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	var single RankingResponse
	if resp := getJSON(t, srv, "/v1/partners?user=1&n=5", &single); resp.StatusCode != http.StatusOK {
		t.Fatalf("quantized /v1/partners = %d", resp.StatusCode)
	}
	if len(single.Pairs) == 0 {
		t.Fatal("quantized query returned no pairs")
	}
	resp, batch := postBatch(t, srv, "/v1/partners", BatchQueryRequest{Users: []int32{1, 2}, N: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantized POST batch = %d", resp.StatusCode)
	}
	samePairs(t, "quantized batch vs single", single.Pairs, batch.Results[0].Pairs)

	expo, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer expo.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(expo.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ebsn_serve_quantized 1") {
		t.Fatal("exposition missing ebsn_serve_quantized 1")
	}
}
