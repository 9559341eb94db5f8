package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite exposition golden files")

// goldenRegistry builds a registry with every instrument kind at fixed
// values so the rendered exposition is byte-stable.
func goldenRegistry() *Registry {
	r := NewRegistry()
	req := r.CounterVec("ebsn_requests_total", "Requests served, by endpoint.", "endpoint")
	req.With("events").Add(6)
	req.With("partners").Add(5)
	r.Counter("ebsn_panics_total", "Recovered handler panics.").Add(1)
	r.Gauge("ebsn_in_flight", "Requests currently in flight.").Set(3)
	r.GaugeFunc("ebsn_uptime_seconds", "Seconds since process start.", func() float64 { return 12.5 })
	r.CounterFunc("ebsn_cache_hits_total", "Cache hits.", func() uint64 { return 17 })
	h := r.HistogramVec("ebsn_request_duration_seconds",
		"Request latency, by endpoint.", []float64{0.001, 0.01, 0.1}, "endpoint")
	eh := h.With("events")
	eh.Observe(500 * time.Microsecond)
	eh.Observe(5 * time.Millisecond)
	eh.Observe(2 * time.Second) // overflow bucket
	esc := r.GaugeVec("ebsn_escaped_gauge", "Has a tricky\nhelp string \\ with escapes.", "path")
	esc.With(`quo"te\slash`).Set(-1.5)
	return r
}

func TestExpositionGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", b.Bytes(), want)
	}
}

func TestExpositionLintsClean(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := Lint(bytes.NewReader(b.Bytes())); err != nil {
		t.Fatalf("rendered exposition fails lint: %v", err)
	}
	samples, err := ParseText(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Key()] = s.Value
	}
	for key, want := range map[string]float64{
		`ebsn_requests_total{endpoint="events"}`:   6,
		`ebsn_requests_total{endpoint="partners"}`: 5,
		`ebsn_in_flight`:        3,
		`ebsn_uptime_seconds`:   12.5,
		`ebsn_cache_hits_total`: 17,
		`ebsn_request_duration_seconds_bucket{endpoint="events",le="0.001"}`: 1,
		`ebsn_request_duration_seconds_bucket{endpoint="events",le="0.01"}`:  2,
		`ebsn_request_duration_seconds_bucket{endpoint="events",le="0.1"}`:   2,
		`ebsn_request_duration_seconds_bucket{endpoint="events",le="+Inf"}`:  3,
		`ebsn_request_duration_seconds_count{endpoint="events"}`:             3,
	} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v", key, got[key], want)
		}
	}
}

func TestLintCatchesFormatViolations(t *testing.T) {
	cases := map[string]string{
		"sample before headers": "my_total 1\n",
		"missing TYPE":          "# HELP my_total x\nmy_total 1\n",
		"duplicate HELP":        "# HELP my_total x\n# HELP my_total y\n# TYPE my_total counter\nmy_total 1\n",
		"invalid type":          "# HELP my_total x\n# TYPE my_total bogus\nmy_total 1\n",
		"duplicate sample":      "# HELP my_total x\n# TYPE my_total counter\nmy_total 1\nmy_total 2\n",
		"interleaved families": "# HELP a_total x\n# TYPE a_total counter\na_total 1\n" +
			"# HELP b_total x\n# TYPE b_total counter\nb_total 1\na_total 2\n",
		"non-cumulative buckets": "# HELP h_seconds x\n# TYPE h_seconds histogram\n" +
			"h_seconds_bucket{le=\"0.1\"} 5\nh_seconds_bucket{le=\"+Inf\"} 3\nh_seconds_sum 1\nh_seconds_count 3\n",
		"missing +Inf bucket": "# HELP h_seconds x\n# TYPE h_seconds histogram\n" +
			"h_seconds_bucket{le=\"0.1\"} 5\nh_seconds_sum 1\nh_seconds_count 5\n",
		"bucket/count disagreement": "# HELP h_seconds x\n# TYPE h_seconds histogram\n" +
			"h_seconds_bucket{le=\"0.1\"} 5\nh_seconds_bucket{le=\"+Inf\"} 5\nh_seconds_sum 1\nh_seconds_count 7\n",
	}
	for name, text := range cases {
		if err := Lint(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint accepted invalid exposition", name)
		}
	}
}

// TestConcurrentRecordingAndScraping hammers every instrument kind from
// many goroutines while scrapes render concurrently — the shape the
// race job runs to prove recording is lock-free-safe. Totals are exact:
// nothing may be lost to races.
func TestConcurrentRecordingAndScraping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "x")
	v := r.CounterVec("v_total", "x", "who")
	g := r.Gauge("g", "x")
	h := r.Histogram("h_seconds", "x", []float64{0.001, 0.01, 0.1})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := v.With("w") // all workers share one child: contended path
			for i := 0; i < perWorker; i++ {
				c.Inc()
				child.Inc()
				g.Add(1)
				h.ObserveSeconds(0.0005)
			}
		}(w)
	}
	// Concurrent scrapes must stay valid expositions throughout.
	var scrapeErr error
	var scrapeMu sync.Mutex
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b bytes.Buffer
				if err := r.WritePrometheus(&b); err != nil {
					scrapeMu.Lock()
					scrapeErr = err
					scrapeMu.Unlock()
					return
				}
				if err := Lint(bytes.NewReader(b.Bytes())); err != nil {
					scrapeMu.Lock()
					scrapeErr = err
					scrapeMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if scrapeErr != nil {
		t.Fatalf("concurrent scrape: %v", scrapeErr)
	}
	total := uint64(workers * perWorker)
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if v.With("w").Value() != total {
		t.Fatalf("vec child = %d, want %d", v.With("w").Value(), total)
	}
	if g.Value() != float64(total) {
		t.Fatalf("gauge = %v, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
}
