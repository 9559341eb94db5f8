package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// nopWriter is a ResponseWriter that keeps nothing, so the benchmarks
// below count what the server allocates and not what a recorder does.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(int)             {}

// benchRequests builds one GET /v1/partners request per user up front:
// the measured loop is ServeHTTP alone, called directly the way the
// benchmark's allocation probe calls it.
func benchRequests(users int) []*http.Request {
	reqs := make([]*http.Request, users)
	for u := range reqs {
		reqs[u] = httptest.NewRequest("GET", "/v1/partners?user="+strconv.Itoa(u)+"&n=10", nil)
	}
	return reqs
}

func benchServe(b *testing.B, s *Server, reqs []*http.Request) {
	w := &nopWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		s.ServeHTTP(w, reqs[i%len(reqs)])
	}
}

// hitServer is BenchmarkServeHit's server: the default config, with
// the 64 requests it returns each asked once, so every later ask hits.
func hitServer(tb testing.TB) (*Server, []*http.Request) {
	rec, err := sharedRecommender()
	if err != nil {
		tb.Fatal(err)
	}
	s := New(rec, Config{})
	if err := s.Warm(); err != nil {
		tb.Fatal(err)
	}
	reqs := benchRequests(64)
	w := &nopWriter{h: make(http.Header)}
	for _, r := range reqs {
		s.ServeHTTP(w, r) // the miss that fills the cache
	}
	return s, reqs
}

// missServer is BenchmarkServeMiss's server. Its cache is smaller than
// the cycle of 64 users it returns requests for, so by the time a user
// comes round again its entry has been evicted.
func missServer(tb testing.TB) (*Server, []*http.Request) {
	rec, err := sharedRecommender()
	if err != nil {
		tb.Fatal(err)
	}
	s := New(rec, Config{CacheCapacity: 8, CacheShards: 1})
	if err := s.Warm(); err != nil {
		tb.Fatal(err)
	}
	return s, benchRequests(64)
}

// BenchmarkServeHit is one cache hit on GET /v1/partners through the
// whole middleware stack. CI gates its allocs/op, and TestServeAllocs
// holds the same bound.
func BenchmarkServeHit(b *testing.B) {
	s, reqs := hitServer(b)
	benchServe(b, s, reqs)
	if hits, _ := s.Cache().Stats(); hits < uint64(b.N) {
		b.Fatalf("%d hits over %d requests", hits, b.N)
	}
}

// BenchmarkServeMiss is one cache miss on GET /v1/partners: parse,
// lookup, the timeout wrapper, the engine query, one encode and the Put.
// CI gates its allocs/op, and TestServeAllocs holds the same bound: a
// miss must not pay a second parse or a second encode.
func BenchmarkServeMiss(b *testing.B) {
	s, reqs := missServer(b)
	benchServe(b, s, reqs)
	if hits, _ := s.Cache().Stats(); hits != 0 {
		b.Fatalf("%d hits in the miss benchmark", hits)
	}
}

// TestServeAllocs is the CI allocation gate of BenchmarkServeHit and
// BenchmarkServeMiss in the test suite: a cache hit allocates at most 15
// times, as CI requires, and a miss at most 53, one below CI's 54 and
// what a miss measures today, so that one more allocation fails here.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name   string
		server func(testing.TB) (*Server, []*http.Request)
		max    float64
	}{{"hit", hitServer, 15}, {"miss", missServer, 53}} {
		s, reqs := tc.server(t)
		w := &nopWriter{h: make(http.Header)}
		i := 0
		allocs := testing.AllocsPerRun(4*len(reqs), func() {
			clear(w.h)
			s.ServeHTTP(w, reqs[i%len(reqs)])
			i++
		})
		if allocs > tc.max {
			t.Errorf("%s: %v allocs per request, want at most %v", tc.name, allocs, tc.max)
		}
	}
}
