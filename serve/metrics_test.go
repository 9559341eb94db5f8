package serve

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ebsn"
	"ebsn/internal/obs"
)

// exposer serves m's registry the way /metrics does, for scrape.
func exposer(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _ = m.WriteExposition(w) })
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics("events", "partners")
	ep := m.Endpoint("events")
	if ep == nil {
		t.Fatal("Endpoint(events) = nil")
	}
	if m.Endpoint("nope") != nil {
		t.Fatal("unknown endpoint not nil")
	}
	ep.Observe(200, 2*time.Millisecond)
	ep.Observe(400, 1*time.Millisecond)
	ep.Observe(500, 1*time.Millisecond)
	m.RecordShed()
	m.RecordPanic()
	m.RecordTA(ebsn.SearchStats{SortedAccesses: 10, RandomAccesses: 20, Candidates: 100, Elapsed: 300 * time.Microsecond})
	m.RecordTA(ebsn.SearchStats{SortedAccesses: 5, RandomAccesses: 5, Candidates: 100, Elapsed: 200 * time.Microsecond})
	m.RecordBatch(16)    // one POST dispatch
	m.RecordCoalesced(3) // two coalesced windows
	m.RecordCoalesced(4)

	got := scrape(t, exposer(m))
	for key, want := range map[string]float64{
		`ebsn_serve_requests_total{endpoint="events"}`:                   3,
		`ebsn_serve_request_errors_total{endpoint="events",class="4xx"}`: 1,
		`ebsn_serve_request_errors_total{endpoint="events",class="5xx"}`: 1,
		`ebsn_serve_request_duration_seconds_count{endpoint="events"}`:   3,
		`ebsn_serve_requests_total{endpoint="partners"}`:                 0,
		`ebsn_serve_shed_total`:                                          1,
		`ebsn_serve_panics_total`:                                        1,
		`ebsn_serve_ta_queries_total`:                                    2,
		`ebsn_serve_ta_random_accesses_total`:                            25,
		`ebsn_serve_ta_candidates_total`:                                 200,
		`ebsn_serve_coalesced_requests_total`:                            7,
		`ebsn_serve_batch_size_count`:                                    3,
		`ebsn_serve_draining`:                                            0,
	} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v", key, got[key], want)
		}
	}
	if frac := got[`ebsn_serve_ta_random_accesses_total`] / got[`ebsn_serve_ta_candidates_total`]; frac != 0.125 {
		t.Fatalf("access fraction = %v, want 0.125", frac)
	}
	// The harness's in-process read is the registry's mean batch width.
	if mean := m.Snapshot().Batch.MeanSize; mean != got[`ebsn_serve_batch_size_sum`]/got[`ebsn_serve_batch_size_count`] || mean != 23.0/3 {
		t.Fatalf("Snapshot().Batch.MeanSize = %v, exposition %v/%v, want 23/3",
			mean, got[`ebsn_serve_batch_size_sum`], got[`ebsn_serve_batch_size_count`])
	}
	m.SetDraining()
	if scrape(t, exposer(m))[`ebsn_serve_draining`] != 1 {
		t.Fatal("SetDraining not reflected in the exposition")
	}
}

// TestMetricsExpositionIsValidPrometheus renders the serve panel after
// traffic and holds it to the exposition-format rules the obs linter
// enforces: HELP/TYPE before samples, no duplicate families or samples,
// cumulative histogram buckets ending at +Inf that agree with _count.
func TestMetricsExpositionIsValidPrometheus(t *testing.T) {
	m := NewMetrics("events", "partners")
	m.Endpoint("events").Observe(200, 3*time.Millisecond)
	m.Endpoint("partners").Observe(200, 150*time.Microsecond)
	m.RecordTA(ebsn.SearchStats{SortedAccesses: 4, RandomAccesses: 9, Candidates: 50, Elapsed: 120 * time.Microsecond})
	var b bytes.Buffer
	if err := m.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if err := obs.Lint(bytes.NewReader(b.Bytes())); err != nil {
		t.Fatalf("serve exposition fails lint: %v\n%s", err, b.Bytes())
	}
	samples, err := obs.ParseText(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Key()] = s.Value
	}
	for key, want := range map[string]float64{
		`ebsn_serve_requests_total{endpoint="events"}`:                 1,
		`ebsn_serve_requests_total{endpoint="partners"}`:               1,
		`ebsn_serve_ta_queries_total`:                                  1,
		`ebsn_serve_ta_random_accesses_total`:                          9,
		`ebsn_serve_ta_candidates_total`:                               50,
		`ebsn_serve_request_duration_seconds_count{endpoint="events"}`: 1,
	} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v", key, got[key], want)
		}
	}
	// Error classes exist as explicit zero series from the first scrape.
	if v, ok := got[`ebsn_serve_request_errors_total{endpoint="events",class="5xx"}`]; !ok || v != 0 {
		t.Errorf("5xx zero series missing or nonzero: %v (present=%v)", v, ok)
	}
	if !strings.Contains(b.String(), "# TYPE ebsn_serve_request_duration_seconds histogram") {
		t.Error("request duration family not typed histogram")
	}
}

// TestMetricsConcurrentRecording hammers the panel from many goroutines
// while scrapes render — run under -race in CI. Totals are exact.
func TestMetricsConcurrentRecording(t *testing.T) {
	m := NewMetrics("events")
	ep := m.Endpoint("events")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ep.Observe(200, 100*time.Microsecond)
				m.AddInFlight(1)
				m.RecordTA(ebsn.SearchStats{RandomAccesses: 2, Candidates: 10, Elapsed: 50 * time.Microsecond})
				m.AddInFlight(-1)
			}
		}()
	}
	for sNum := 0; sNum < 4; sNum++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var b bytes.Buffer
				if err := m.WriteExposition(&b); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				if err := obs.Lint(bytes.NewReader(b.Bytes())); err != nil {
					t.Errorf("mid-load scrape invalid: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got := scrape(t, exposer(m))
	if n := got[`ebsn_serve_requests_total{endpoint="events"}`]; n != workers*per {
		t.Fatalf("requests = %v, want %d", n, workers*per)
	}
	if n := got[`ebsn_serve_ta_queries_total`]; n != workers*per {
		t.Fatalf("ta queries = %v, want %d", n, workers*per)
	}
	if n := got[`ebsn_serve_in_flight`]; n != 0 {
		t.Fatalf("in-flight after balanced adds = %v", n)
	}
}
