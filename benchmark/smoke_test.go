package main

import (
	"math"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, label string, res *result, want []specMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d first failure: %v", label, res.Correct, res.Attempted, res.Failed, res.firstErr)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json lists %d", label, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is listed in BENCHMARK.json but was not emitted", label, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", label, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v is not finite", label, m.Name, got.Value)
		}
	}
}

// TestSpecMatchesHarness pins BENCHMARK.json to the tables the harness
// reports from, and to the limits the acceptance driver puts on it.
func TestSpecMatchesHarness(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a %d-character why; want %q and 1..200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	if len(sp.EndToEnd) != len(endToEnd) || len(sp.EndToEnd) > 16 {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d, the limit is 16", len(sp.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	maxBound := 0.0
	for i, m := range sp.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s [%s], the harness reports %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		// The driver's bound is the ceiling for every workload; a pair ISSUE
		// 15 gates may only be judged more tightly than that, never less.
		for wl, pairs := range issueBounds {
			if ib, ok := pairs[m.Name]; ok && ib > m.Bound {
				t.Errorf("%s/%s: -compare's bound %v is wider than BENCHMARK.json's %v", wl, m.Name, ib, m.Bound)
			}
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		seen[m.Name] = true
	}
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" && (m.Bound != maxBound || m.Better != "lower" || m.Unit != "s") {
			t.Errorf("setup_s must be in s, lower-is-better, with the largest bound; got %+v, largest %v", m, maxBound)
		}
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json must list setup_s")
	}
	if len(sp.PerLayer) != len(perLayer) || len(sp.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d layer metrics, the harness %d, the limit is 128", len(sp.PerLayer), len(perLayer))
	}
	for i, m := range sp.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || m.Better != perLayer[i].better {
			t.Errorf("layer %d: %+v, the harness reports %+v", i, m, perLayer[i])
		}
		if seen[m.Name] {
			t.Errorf("name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 || roundsFor(sp.RunSeconds) < 12 {
		t.Errorf("run_seconds %d must be in [1, 60] and buy at least 12 measured rounds (it buys %d)", sp.RunSeconds, roundsFor(sp.RunSeconds))
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", sp.Paths)
	}
}

// TestSmoke runs all four workloads end to end on the tiny city with two
// rounds each: every operation must succeed and pass its oracle, and
// every end-to-end metric BENCHMARK.json lists must come out.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		res, err := runTiny(wl, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		checkMetrics(t, wl, res, sp.EndToEnd)
		for _, m := range sp.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric must never be 0", wl, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
}

// TestSmokeTrace runs the layer trace once: every layer metric must come
// out, and the layer stack must explain the workload it was taken beside
// — its sum, the probes' round-trip median, within 10% of the median
// request of the traced rounds.
func TestSmokeTrace(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tinyTrace()
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "joint-miss trace", res, sp.PerLayer)
	// A comparison of two timings taken on a shared box: a run that was
	// disturbed is taken again, and three disturbed runs in a row are a
	// finding.
	for attempt := 1; math.Abs(res.stackGapPct) > maxStackGapPct; attempt++ {
		if attempt == 3 {
			t.Errorf("the layer stack sums to http.roundtrip_us = %.1f us, %+.1f%% from the traced rounds' median request (%.1f us): more than %d%% apart, three runs in a row",
				res.Metrics["http.roundtrip_us"].Value, res.stackGapPct, res.tracedMedianMs*1000, maxStackGapPct)
			break
		}
		t.Logf("run %d: stack %+.1f%% from the traced rounds; running the trace again", attempt, res.stackGapPct)
		if res, err = runTiny(wlJointMiss, true, t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	stack := v("http.transport_self_us") + v("serve.self_miss_us") + v("ebsn.self_us") + v("engine.self_us") + v("ta.topn_us")
	if rt := v("http.roundtrip_us"); rt <= 0 || math.Abs(stack-rt) > 1e-6*rt {
		t.Errorf("stacked self times sum to %.3f us, http.roundtrip_us is %.3f: the report's column must add up", stack, rt)
	}
	if r := v("ta.quantized_recall_at_10"); r < minQuantizedRecall {
		t.Errorf("ta.quantized_recall_at_10 = %.4f, want >= %.2f", r, minQuantizedRecall)
	}
}
