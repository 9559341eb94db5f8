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

// BenchmarkServeHit is one cache hit on GET /v1/partners through the
// whole middleware stack. CI gates its allocs/op.
func BenchmarkServeHit(b *testing.B) {
	rec, err := sharedRecommender()
	if err != nil {
		b.Fatal(err)
	}
	s := New(rec, Config{})
	if err := s.Warm(); err != nil {
		b.Fatal(err)
	}
	reqs := benchRequests(64)
	w := &nopWriter{h: make(http.Header)}
	for _, r := range reqs {
		s.ServeHTTP(w, r) // the miss that fills the cache
	}
	benchServe(b, s, reqs)
	if hits, _ := s.Cache().Stats(); hits < uint64(b.N) {
		b.Fatalf("%d hits over %d requests", hits, b.N)
	}
}

// BenchmarkServeMiss is one cache miss on GET /v1/partners: parse,
// lookup, the timeout wrapper, the engine query, one encode and the Put.
// The cache is smaller than the cycle of users asked, so by the time a
// user comes round again its entry has been evicted. CI gates its
// allocs/op: a miss must not pay a second parse or a second encode.
func BenchmarkServeMiss(b *testing.B) {
	rec, err := sharedRecommender()
	if err != nil {
		b.Fatal(err)
	}
	s := New(rec, Config{CacheCapacity: 8, CacheShards: 1})
	if err := s.Warm(); err != nil {
		b.Fatal(err)
	}
	benchServe(b, s, benchRequests(64))
	if hits, _ := s.Cache().Stats(); hits != 0 {
		b.Fatalf("%d hits in the miss benchmark", hits)
	}
}
