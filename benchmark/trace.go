package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ebsn/internal/rng"
)

// span is one timed interval of a traced run: which layer boundary it
// was taken at, when, the span that caused it, and the logical query it
// belongs to. Spans are taken from outside the program, around calls
// into each layer's public functions; spans inside the program are a
// later change.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into spans, -1 for a root
	Query   int    `json:"query"`  // shared by the depths of one probe query, -1 for round traffic
}

// spanLog keeps spans in memory; they are written out once, when the
// run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, start, end time.Time, parent, query int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name, start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds(), parent, query})
	return len(l.spans) - 1
}

func (l *spanLog) write(path string, res *result) error {
	b, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Env      envInfo           `json:"env"`
		Metrics  map[string]metric `json:"metrics"`
		Spans    []span            `json:"spans"`
	}{res.Workload, res.Seed, res.Env, res.Metrics, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerMetric describes one per-layer figure. Layers carry the module
// names; README.md says which end-to-end metric each should move.
type layerMetric struct{ name, unit, better string }

var perLayer = []layerMetric{
	{"vecmath.dot_ns_per_row", "ns", "lower"},
	{"vecmath.dot_gbps", "GB/s", "higher"},
	{"vecmath.dotpanel_b16_ns_per_row", "ns", "lower"},
	{"vecmath.doti8_ns_per_row", "ns", "lower"},

	{"ta.topn_us", "us", "lower"},
	{"ta.kernel_us", "us", "lower"},
	{"ta.random_accesses_per_query", "count", "lower"},
	{"ta.sorted_accesses_per_query", "count", "lower"},
	{"ta.access_fraction", "ratio", "lower"},
	{"ta.allocs_per_query", "count", "lower"},
	{"ta.topn_pred_us", "us", "lower"},
	{"ta.topn_batch16_us_per_user", "us", "lower"},
	{"ta.topn_quantized_us", "us", "lower"},
	{"ta.quantized_recall_at_10", "ratio", "higher"},
	{"ta.build_candidates_s", "s", "lower"},
	{"ta.fastindex_build_s", "s", "lower"},
	{"ta.delta_add_us_per_event", "us", "lower"},

	{"engine.build_s", "s", "lower"},
	{"engine.search_us", "us", "lower"},
	{"engine.prepass_us", "us", "lower"},
	{"engine.shard_walk_us", "us", "lower"},
	{"engine.merge_us", "us", "lower"},
	{"engine.self_us", "us", "lower"},
	{"engine.allocs_per_query", "count", "lower"},
	{"engine.search_shards2_us", "us", "lower"},
	{"engine.batch16_us_per_user", "us", "lower"},

	{"ebsn.joint_us", "us", "lower"},
	{"ebsn.self_us", "us", "lower"},
	{"ebsn.top_events_us", "us", "lower"},
	{"ebsn.constrained_us", "us", "lower"},
	{"ebsn.feed_us", "us", "lower"},
	{"ebsn.live_us", "us", "lower"},
	{"ebsn.assemble_s", "s", "lower"},
	{"ebsn.artifact_map_ms", "ms", "lower"},
	{"ebsn.artifact_save_ms", "ms", "lower"},
	{"ebsn.ingest_us_per_event", "us", "lower"},
	{"ebsn.compact_ms", "ms", "lower"},

	{"core.train_s", "s", "lower"},
	{"core.train_steps_per_s", "1/s", "higher"},
	{"ebsnet.graphs_build_s", "s", "lower"},

	{"serve.miss_us", "us", "lower"},
	{"serve.self_miss_us", "us", "lower"},
	{"serve.coalesce_wait_us", "us", "lower"},
	{"serve.coalesce_mean_batch", "count", "higher"},
	{"serve.allocs_per_miss", "count", "lower"},
	{"serve.hit_us", "us", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.allocs_per_hit", "count", "lower"},
	{"serve.bytes_per_resp", "B", "lower"},
	{"serve.metrics_scrape_ms", "ms", "lower"},
	{"serve.constrained_p50_ms", "ms", "lower"},
	{"serve.batch16_p50_ms", "ms", "lower"},
	{"serve.feed_p50_ms", "ms", "lower"},
	{"serve.quantized_p50_ms", "ms", "lower"},
	{"serve.ingest_p50_ms", "ms", "lower"},
	{"serve.ingest_self_ms", "ms", "lower"},
	{"serve.compact_ms", "ms", "lower"},
	{"serve.live_p90_under_compaction_ms", "ms", "lower"},
	{"serve.reload_ms", "ms", "lower"},
	{"serve.openloop_half_capacity_p90_ms", "ms", "lower"},

	{"http.roundtrip_us", "us", "lower"},
	{"http.transport_self_us", "us", "lower"},

	{"loadgen.late_p90_ms", "ms", "lower"},
	{"loadgen.round_spread_pct", "%", "lower"},
	{"proc.cpu_ms_per_req", "ms", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.heap_mb", "MB", "lower"},
	{"proc.mapped_mb", "MB", "lower"},
	{"datagen.generate_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// maxStackGapPct is how far the stacked self times (which sum to the
// probes' round-trip median by construction) may lie from the median
// latency of the traced joint-miss rounds. Both time the same request, a
// cache-missing GET /v1/partners; beyond this the layer report no longer
// explains the workload, and the run says so.
const maxStackGapPct = 10

// traceRounds splits a run's rounds between the untraced and the traced
// half of the overhead measurement.
func traceRounds(rounds int) int {
	if t := rounds / 3; t > 1 {
		return t
	}
	return 1
}

// runTrace is a --trace 1 run. It drives the workload twice over, once
// untraced and once with a span around every request, so the overhead of
// tracing is itself measured; fires one round open-loop at half the
// measured capacity; then runs the layer probes, which time the same
// logical queries at every depth from the HTTP round trip down to the
// dot kernel. Its metrics are the per-layer ones.
func runTrace(cfg runConfig) (*result, error) {
	t := traceRounds(cfg.rounds)
	cfg.rounds = 2*t + 1 // the schedule's last round is the open-loop one
	s, err := open(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := s.res
	layer := map[string]float64{}
	log := &spanLog{t0: time.Now()}

	s.warmUp()
	hits0, misses0 := s.e.srv.Cache().Stats()
	plainRounds := s.measure(t)
	s.gen.spans = log
	tracedRounds := s.measure(t)
	s.gen.spans = nil
	layer["proc.cpu_ms_per_req"] = (plainRounds.cpuS + tracedRounds.cpuS) * 1000 / float64(plainRounds.reqs+tracedRounds.reqs)
	layer["proc.gc_pause_ms"] = (plainRounds.gcS + tracedRounds.gcS) * 1000
	res.hitRatio = s.hitRatio(hits0, misses0)
	layer["serve.cache_hit_ratio"] = res.hitRatio
	layer["serve.coalesce_mean_batch"] = s.e.srv.Metrics().Snapshot().Batch.MeanSize

	plain, _ := roundQuantile(plainRounds.ops, 0.5)
	traced, _ := roundQuantile(tracedRounds.ops, 0.5)
	layer["trace.overhead_pct"] = (traced.Value - plain.Value) / plain.Value * 100
	spread := plain.SpreadPct
	if sp := spreadPct(plainRounds.rps); sp > spread {
		spread = sp
	}
	layer["loadgen.round_spread_pct"] = spread
	res.Estimates["latency_p50_ms"], res.Estimates["traced_latency_p50_ms"] = plain, traced

	// Open loop: independent users do not wait for each other, so arrivals
	// keep coming while a request is slow. Half the closed-loop capacity
	// is a rate the server sustains without a growing backlog.
	last := s.sched.next().single
	gated, reqs := 0, 0
	for _, o := range last {
		if o.gated {
			gated++
			reqs += len(o.reqs)
		}
	}
	rate := median(plainRounds.rps) / 2 * float64(gated) / float64(reqs)
	lat, late, failed, first := s.gen.openLoop(last, rate, cfg.sc.sizes.clients, rng.New(cfg.seed^0x6f70656e))
	res.Attempted += reqs
	res.Failed += failed
	s.noteFailure(first)
	layer["serve.openloop_half_capacity_p90_ms"] = p90OrMedian(lat)
	layer["loadgen.late_p90_ms"] = p90OrMedian(late)

	p, err := newProbes(s, log)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if err := p.run(layer); err != nil {
		return nil, err
	}
	res.Attempted += p.attempted
	res.Failed += p.failed
	s.noteFailure(p.firstErr)
	if err := s.verify(); err != nil {
		return nil, err
	}
	// The probes' round trip and the traced rounds' requests are the same
	// query measured twice; the stack decomposes the former, so it explains
	// the workload only as far as the two agree.
	if cfg.workload == wlJointMiss {
		// Like for like: the median of every probe against the median of
		// every traced request, not against the rounds' quiet quartile.
		var all []float64
		for _, r := range tracedRounds.ops {
			all = append(all, r...)
		}
		res.tracedMedianMs = median(all)
		res.stackGapPct = (layer["http.roundtrip_us"]/1000 - res.tracedMedianMs) / res.tracedMedianMs * 100
	}

	layer["ebsn.assemble_s"] = res.setup.assemble
	layer["core.train_s"] = res.setup.train
	layer["core.train_steps_per_s"] = float64(cfg.sc.steps) / res.setup.train
	layer["datagen.generate_s"] = res.genS
	layer["proc.heap_mb"] = heapMB()

	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	res.Correct = res.Failed == 0
	s.printTrace(layer, plain, traced)
	path := filepath.Join(cfg.outDir, "trace.json")
	if err := log.write(path, res); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.report, "  %d spans written to %s\n", len(log.spans), path)
	return res, nil
}

// printTrace prints the stacked layer report: the self time of each
// depth of a joint query, outermost first. Self time is a depth's median
// minus its child's, so the column sums to the round-trip median.
func (s *session) printTrace(layer map[string]float64, plain, traced estimate) {
	w, res := s.cfg.report, s.res
	fmt.Fprintf(w, "%s  seed %d  city %s  layer trace  GOMAXPROCS %d  nproc %d  %s\n",
		res.Workload, res.Seed, res.City, res.Env.GoMaxProcs, res.Env.NumCPU, res.Env.GoVersion)
	fmt.Fprintf(w, "  workload latency_p50_ms: %.4f untraced, %.4f traced (overhead %+.1f%%); cache hit ratio %.4f\n",
		plain.Value, traced.Value, layer["trace.overhead_pct"], layer["serve.cache_hit_ratio"])
	fmt.Fprintf(w, "  one joint query (GET /v1/partners, a cache miss), median of %d probe queries, self time per layer:\n", s.cfg.sc.probes)
	stack := []struct{ label, name string }{
		{"http      transport, client and net/http server", "http.transport_self_us"},
		{"serve     parse, cache, coalesce, encode", "serve.self_miss_us"},
		{"ebsn      facade conversion", "ebsn.self_us"},
		{"engine    prepass hand-off, fan-out, merge", "engine.self_us"},
		{"ta        FastIndex.TopNExcludingScratch (dot kernels and walk)", "ta.topn_us"},
	}
	sum := 0.0
	for _, l := range stack {
		fmt.Fprintf(w, "    %10.1f us  %-22s %s\n", layer[l.name], l.name, l.label)
		sum += layer[l.name]
	}
	fmt.Fprintf(w, "    %10.1f us  sum; http.roundtrip_us is %.1f\n", sum, layer["http.roundtrip_us"])
	if s.cfg.workload == wlJointMiss {
		fmt.Fprintf(w, "    the traced rounds' requests took %.1f us at the median: the stack is %+.1f%% away from the workload it explains\n",
			res.tracedMedianMs*1000, res.stackGapPct)
	}
	fmt.Fprintf(w, "    of ta's time, %.1f us is ta.kernel_us: the two vecmath.DotBatch passes over event and partner rows\n", layer["ta.kernel_us"])
	fmt.Fprintf(w, "    of serve's self time, %.1f us is serve.coalesce_wait_us: the miss costs that much less with CoalesceWindow 0\n",
		layer["serve.coalesce_wait_us"])
	fmt.Fprintln(w, "  every layer metric:")
	for _, m := range perLayer {
		fmt.Fprintf(w, "    %-38s %14.4f %s\n", m.name, layer[m.name], m.unit)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	if res.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", res.firstErr)
	}
	if math.Abs(res.stackGapPct) > maxStackGapPct {
		fmt.Fprintf(w, "  disturbed: the stack and the traced workload are %.1f%% apart (above %d%%): the probes or the rounds were disturbed\n",
			res.stackGapPct, maxStackGapPct)
	}
	if sp := layer["loadgen.round_spread_pct"]; sp > disturbedPct {
		fmt.Fprintf(w, "  disturbed: rounds spread %.1f%% (above %d%%: the box was busy; treat this run with suspicion)\n", sp, disturbedPct)
	}
}
