package main

import (
	"bytes"
	"container/list"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ebsn"
	"ebsn/internal/datagen"
)

func TestQuantileNeedsTenSamplesBeyondATail(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if v, ok := quantile(asc, 0.5); !ok || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	// p90 of 100 samples is rank 90 with 10 beyond it: just enough.
	if v, ok := quantile(asc, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	// One sample fewer leaves 9 beyond: the value is still returned, but
	// flagged unsupported.
	if v, ok := quantile(asc[:99], 0.9); ok || v != 90 {
		t.Errorf("p90 of 1..99 = %v, %v; want 90, false", v, ok)
	}
	if _, ok := quantile(asc, 0.99); ok {
		t.Error("p99 of 100 samples has 1 beyond it and must be unsupported")
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of nothing must be unsupported")
	}
	// The median never needs a tail.
	if v, ok := quantile([]float64{3}, 0.5); !ok || v != 3 {
		t.Errorf("p50 of one sample = %v, %v; want 3, true", v, ok)
	}
}

func TestMedianAndQuartilesMatchPythonStatistics(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	if got, want := spreadPct(xs), (8.25-2.75)/5.5*100; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadPct = %v, want %v", got, want)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestGoodSideQuartileAcrossRounds(t *testing.T) {
	round := func(shift float64, n int) []float64 {
		r := make([]float64, n)
		for i := range r {
			r[i] = shift + float64(i)
		}
		return r
	}
	// Five rounds of 200: per-round p50 is shift+99, p90 is shift+179. One
	// rule for every timing: the quartile of the rounds on the good side,
	// statistics.quantiles([99, 109, 119, 199, 1099], n=4) == [104, 119, 649].
	rounds := [][]float64{round(100, 200), round(0, 200), round(1000, 200), round(10, 200), round(20, 200)}
	e, ok := roundQuantile(rounds, 0.5)
	if !ok || e.Value != 104 || e.Rounds != 5 || e.PerRound != 200 {
		t.Errorf("p50 across rounds = %+v, %v; want first quartile 104 over 5 rounds of 200", e, ok)
	}
	if want := spreadPct([]float64{199, 99, 1099, 109, 119}); math.Abs(e.SpreadPct-want) > 1e-12 {
		t.Errorf("p50 spread across rounds = %v, want %v", e.SpreadPct, want)
	}
	e, ok = roundQuantile(rounds, 0.9)
	if !ok || e.Value != 184 {
		t.Errorf("p90 across rounds = %+v, %v; want first quartile 184", e, ok)
	}
	// For a rate the good side is the upper one:
	// statistics.quantiles([650, 690, 700, 720, 900], n=4)[2] == 810.
	rps := []float64{700, 650, 720, 690, 900}
	tp := acrossRounds(rps, true, 400)
	if tp.Value != 810 || tp.PerRound != 400 || math.Abs(tp.SpreadPct-spreadPct(rps)) > 1e-12 {
		t.Errorf("throughput estimate = %+v; want third quartile 810 of rounds of 400", tp)
	}
	// A round of 99 cannot support its own p90 (9 beyond), and rounds are
	// never pooled to make up for it.
	if _, ok := roundQuantile([][]float64{round(0, 200), round(0, 99)}, 0.9); ok {
		t.Error("a p90 over a round of 99 samples must be unsupported")
	}
	if _, ok := roundQuantile(nil, 0.5); ok {
		t.Error("a quantile over no rounds must be unsupported")
	}
}

// tinyCity assembles the smoke-test city once per test binary. Assemble
// does not train: schedules need only the dataset and the split.
var tinyCity = sync.OnceValues(func() (*ebsn.Recommender, error) {
	d, err := datagen.Generate(tinyScale().gen)
	if err != nil {
		return nil, err
	}
	return ebsn.Assemble(d, ebsn.Config{Seed: citySeed, Threads: 1})
})

func TestSameSeedSameSchedule(t *testing.T) {
	rec, err := tinyCity()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		build := func(seed uint64) []byte {
			s, err := buildSchedule(runConfig{workload: wl, seed: seed, rounds: 2, sc: tinyScale()}, rec)
			if err != nil {
				t.Fatalf("%s: %v", wl, err)
			}
			b := s.bytes()
			if len(b) == 0 {
				t.Fatalf("%s: empty schedule", wl)
			}
			return b
		}
		a, b, c := build(7), build(7), build(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", wl)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", wl)
		}
	}
}

// modelLRU is an independent model of the response cache: one LRU list
// over request paths with the daemon's default capacity.
type modelLRU struct {
	cap  int
	ll   *list.List
	m    map[string]*list.Element
	hits int
	all  int
}

func (c *modelLRU) get(key string) {
	c.all++
	if el, ok := c.m[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		back := c.ll.Back()
		delete(c.m, back.Value.(string))
		c.ll.Remove(back)
	}
	c.m[key] = c.ll.PushFront(key)
}

func TestMixedHotScheduleHitsAsStated(t *testing.T) {
	const users = 11890 // bench-12k after the five-event filter
	sz := benchSizes
	s := buildMixedHot(3, users, 3, sz)
	c := &modelLRU{cap: daemonConfig().CacheCapacity, ll: list.New(), m: map[string]*list.Element{}}
	replay := func(ops []op) {
		for _, o := range ops {
			c.get(o.reqs[0].path)
		}
	}
	for i, r := range s.all() {
		if i == 1 {
			c.hits, c.all = 0, 0 // the warm-up round fills the cache and is not measured
		}
		replay(r.single)
		for _, cl := range r.closed {
			replay(cl)
		}
	}
	got := float64(c.hits) / float64(c.all)
	want := 1 - 1/float64(sz.coldEvery)
	if math.Abs(got-want) > 0.001 {
		t.Errorf("model LRU hit ratio %.4f over %d measured requests, want %.4f", got, c.all, want)
	}
	if got < 0.97 || got > 0.98+1e-9 {
		t.Errorf("hit ratio %.4f outside the stated [0.97, 0.98]", got)
	}

	// joint-miss must never re-request a user within the cache's reach.
	jm := buildJointMiss(3, users, 12, sz)
	c = &modelLRU{cap: daemonConfig().CacheCapacity, ll: list.New(), m: map[string]*list.Element{}}
	for _, r := range jm.all() {
		replay(r.single)
		for _, cl := range r.closed {
			replay(cl)
		}
	}
	if c.hits != 0 {
		t.Errorf("joint-miss schedule would hit the cache %d times in %d requests", c.hits, c.all)
	}
}

// tinyTrace runs the smoke-scale layer trace of joint-miss once per test
// binary; several tests read it.
var tinyTrace = sync.OnceValues(func() (*result, error) { return runTiny(wlJointMiss, true, os.TempDir()) })

func runTiny(workload string, trace bool, dir string) (*result, error) {
	out, err := os.MkdirTemp(dir, "bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(out)
	cfg := runConfig{workload: workload, seed: 1, rounds: 2, trace: trace, sc: tinyScale(), outDir: out, report: &strings.Builder{}}
	if trace {
		return runTrace(cfg)
	}
	return runEndToEnd(cfg)
}

func TestAccessCountsRepeatExactly(t *testing.T) {
	a, err := tinyTrace()
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTiny(wlJointMiss, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ta.random_accesses_per_query", "ta.sorted_accesses_per_query", "ta.access_fraction"} {
		if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
			t.Errorf("%s: %v then %v; the counts must repeat bit for bit and be non-zero", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	// The driver's ceiling is wide; joint-miss pairs are ISSUE 15's and are
	// judged at 10% and 5% all the same.
	sp := spec{EndToEnd: []specMetric{
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	}}
	b, _ := json.Marshal(sp)
	if err := os.WriteFile(specPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name, workload string, correct bool, lat, rps, rss, batch []float64) string {
		path := filepath.Join(dir, name)
		for i := range lat {
			res := &result{Workload: workload, Correct: correct, Metrics: map[string]metric{
				"latency_p50_ms": {lat[i], "ms"}, "throughput_rps": {rps[i], "1/s"}, "rss_mb": {rss[i], "MB"},
			}, Kinds: map[string]estimate{kBatch.String(): {Value: batch[i]}}}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	verdicts := func(out string) map[string]string {
		got := map[string]string{}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] != "workload" {
				got[f[0]+"/"+f[1]] = f[len(f)-1]
			}
		}
		return got
	}
	steady := []float64{100, 101, 99, 100, 102}
	lat := []float64{2.00, 2.01, 1.99, 2.02, 2.00}
	rps := []float64{700, 705, 695, 702, 698}
	batch := []float64{6.40, 6.41, 6.39, 6.42, 6.40}
	a := write("a.jsonl", wlJointMiss, true, lat, rps, steady, batch)
	// Latency 20% worse, throughput 20% better, memory too scattered to call.
	bad := write("b.jsonl", wlJointMiss, true, []float64{2.40, 2.41, 2.39, 2.42, 2.40}, []float64{840, 845, 835, 842, 838}, []float64{80, 100, 120, 90, 110}, batch)
	var out strings.Builder
	regressed, err := compareFiles(&out, specPath, a, bad)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 20% worse joint-miss/latency_p50_ms must report a regression, whatever BENCHMARK.json's ceiling")
	}
	got := verdicts(out.String())
	for pair, want := range map[string]string{
		"joint-miss/latency_p50_ms": verdictRegressed, "joint-miss/throughput_rps": verdictOK, "joint-miss/rss_mb": verdictUnresolved,
	} {
		if got[pair] != want {
			t.Errorf("%s: verdict %q, want %q in\n%s", pair, got[pair], want, out.String())
		}
	}
	if _, ok := got["joint-miss/"+kindMetric(kBatch)]; ok {
		t.Errorf("joint-miss does not gate %s:\n%s", kindMetric(kBatch), out.String())
	}

	// variants gates each variant's own p50: a batch path 20% slower shows,
	// though the session latency it is part of stays inside the ceiling.
	va := write("va.jsonl", wlVariants, true, lat, rps, steady, batch)
	vb := write("vb.jsonl", wlVariants, true, []float64{2.20, 2.21, 2.19, 2.22, 2.20}, rps, steady, []float64{7.68, 7.69, 7.67, 7.70, 7.68})
	out.Reset()
	if regressed, err = compareFiles(&out, specPath, va, vb); err != nil || !regressed {
		t.Errorf("a 20%% worse variants/%s: regressed=%v err=%v\n%s", kindMetric(kBatch), regressed, err, out.String())
	}
	got = verdicts(out.String())
	if got["variants/"+kindMetric(kBatch)] != verdictRegressed || got["variants/latency_p50_ms"] != verdictOK {
		t.Errorf("want variants/%s regressed and variants/latency_p50_ms ok in\n%s", kindMetric(kBatch), out.String())
	}

	out.Reset()
	if regressed, err = compareFiles(&out, specPath, a, a); err != nil || regressed {
		t.Errorf("a set compared with itself: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	// A set holding a run with failed operations is no baseline: the
	// comparison says so and does not pass.
	write("a.jsonl", wlJointMiss, false, lat[:1], rps[:1], steady[:1], batch[:1])
	out.Reset()
	if regressed, err = compareFiles(&out, specPath, a, a); err != nil || !regressed || !strings.Contains(out.String(), "1 runs with failed operations") {
		t.Errorf("a set with an incorrect run: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}
