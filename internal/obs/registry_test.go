package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.001, 0.01, 0.1, 1})
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 0; i < 90; i++ {
		h.Observe(200 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(80 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if mean := h.Mean(); mean < 0.005 || mean > 0.02 {
		t.Fatalf("mean = %vs, want ~0.008", mean)
	}
}

func TestVecChildrenAreStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("requests_total", "requests", "endpoint")
	a := v.With("events")
	b := v.With("partners")
	if a == b {
		t.Fatal("distinct label values share a child")
	}
	if v.With("events") != a {
		t.Fatal("same label values resolve to different children")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatal("sibling child counts leaked")
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x")
	mustPanic("duplicate family", func() { r.Counter("dup_total", "x") })
	mustPanic("invalid name", func() { r.Counter("0bad", "x") })
	mustPanic("invalid label", func() { r.CounterVec("ok_total", "x", "le") })
	mustPanic("unsorted bounds", func() { r.Histogram("h_seconds", "x", []float64{1, 0.5}) })
	mustPanic("empty bounds", func() { r.Histogram("h2_seconds", "x", nil) })
	v := r.CounterVec("labeled_total", "x", "a", "b")
	mustPanic("arity mismatch", func() { v.With("only-one") })
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != 0 {
		t.Fatalf("gauge after balanced adds = %v, want 0", v)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("escape_gauge", "tricky", "path")
	v.With("a\"b\\c\nd").Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `escape_gauge{path="a\"b\\c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped sample not found in:\n%s", out)
	}
	samples, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Get("path") != "a\"b\\c\nd" {
		t.Fatalf("round-trip lost the label value: %+v", samples)
	}
}

func TestGaugeFuncAndCounterFunc(t *testing.T) {
	r := NewRegistry()
	val := 0.0
	r.GaugeFunc("fn_gauge", "computed", func() float64 { return val })
	r.CounterFunc("fn_total", "computed", func() uint64 { return 42 })
	val = math.Pi
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Key()] = s.Value
	}
	if got["fn_gauge"] != math.Pi {
		t.Fatalf("fn_gauge = %v", got["fn_gauge"])
	}
	if got["fn_total"] != 42 {
		t.Fatalf("fn_total = %v", got["fn_total"])
	}
}
