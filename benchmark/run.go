package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ebsn"
	"ebsn/internal/datagen"
)

// The four workloads. Each stresses different layers, so that an
// optimisation to one layer has a workload that exercises it and one
// that bypasses it (see README.md).
const (
	wlJointMiss = "joint-miss"
	wlMixedHot  = "mixed-hot"
	wlVariants  = "variants"
	wlLiveChurn = "live-churn"
)

var workloadNames = []string{wlJointMiss, wlMixedHot, wlVariants, wlLiveChurn}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The end-to-end metrics: every workload reports all of them, with
// tracing off.
var endToEnd = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// disturbedPct is the round-to-round spread above which a run warns
// that the box was busy. It is a note for whoever reads the numbers
// later, never a failure.
const disturbedPct = 15

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	rounds   int
	trace    bool
	sc       scale
	outDir   string    // scratch files and trace.json
	report   io.Writer // human-readable report
}

// result is what a run hands back: the driver's contract fields, plus
// what -out and -compare keep.
type result struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Trace     bool                `json:"trace"`
	City      string              `json:"city"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]metric   `json:"metrics"`
	Estimates map[string]estimate `json:"estimates,omitempty"`
	Kinds     map[string]estimate `json:"kind_p50_ms,omitempty"`
	Env       envInfo             `json:"env"`
	Disturbed []string            `json:"disturbed,omitempty"`
	firstErr  error
	hitRatio  float64
	setup     setupTimes
	genS      float64
	meanBatch float64
	cpuMsReq  float64
	gcPauseMs float64
	// stackGapPct is how far the layer stack of a joint-miss trace lies
	// from the median request of the traced rounds it explains,
	// tracedMedianMs (see maxStackGapPct).
	stackGapPct, tracedMedianMs float64
}

// envInfo records where a run was taken, so a noisy or mismatched one
// can be recognised afterwards.
type envInfo struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	// StealPct is the share of the box's CPU time the hypervisor gave to
	// someone else during the measured rounds.
	StealPct float64 `json:"steal_pct"`
}

func currentEnv() envInfo {
	return envInfo{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
}

// buildSchedule makes the workload's whole request schedule from the
// seed and the assembled city.
func buildSchedule(cfg runConfig, rec *ebsn.Recommender) (*schedule, error) {
	users, sz := rec.Dataset().NumUsers, cfg.sc.sizes
	switch cfg.workload {
	case wlJointMiss:
		return buildJointMiss(cfg.seed, users, cfg.rounds, sz), nil
	case wlMixedHot:
		return buildMixedHot(cfg.seed, users, cfg.rounds, sz), nil
	case wlVariants:
		ws, err := windows(rec)
		if err != nil {
			return nil, err
		}
		return buildVariants(cfg.seed, users, cfg.rounds, sz, ws), nil
	case wlLiveChurn:
		return buildLiveChurn(cfg.seed, rec.Dataset(), cfg.rounds, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// session is a set-up system with its load generator and schedule: what
// both the end-to-end run and the trace run drive.
type session struct {
	cfg   runConfig
	e     *env
	gen   *loadgen
	sched *schedule
	res   *result
	// kept holds every response kept for the oracle, in issue order. They
	// are checked by verify once the measurement is over, so that nothing
	// the oracle builds is resident while rss_mb is being measured.
	kept []sample
	orc  *oracle
	last round // the round issued most recently
}

func (s *session) close() {
	if s.gen != nil {
		s.gen.close()
	}
	s.e.close()
}

// open generates the city, sets the system up and readies the load
// generator. Generation is the benchmark's input generator: it runs
// before the set-up clock starts.
func open(cfg runConfig) (*session, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := datagen.Generate(cfg.sc.gen)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	e, err := setUp(d, cfg.sc, cfg.workload, cfg.outDir)
	if err != nil {
		return nil, err
	}
	s := &session{cfg: cfg, e: e}
	if s.sched, err = buildSchedule(cfg, e.rec); err != nil {
		s.close()
		return nil, err
	}
	e.listen()
	s.gen = newLoadgen(e.ts.URL, e.quantURL(), cfg.sc.sizes.clients)
	s.res = &result{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, City: cfg.sc.name,
		Metrics: map[string]metric{}, Estimates: map[string]estimate{}, Kinds: map[string]estimate{},
		Env: currentEnv(), setup: e.times, genS: genS,
	}
	return s, nil
}

// account folds one pass into the run's totals and keeps its sampled
// responses for verify.
func (s *session) account(p *passResult) {
	if p == nil {
		return
	}
	s.res.Attempted += p.reqs
	s.res.Failed += p.failed
	s.noteFailure(p.first)
	s.kept = append(s.kept, p.samples...)
}

// verify builds the oracle and has it check every kept response, in the
// order the responses were given — which for live-churn is the order its
// shadow recommender must see the ingests, compactions and reloads.
func (s *session) verify() error {
	var err error
	if s.orc, err = newOracle(s.e); err != nil {
		return err
	}
	failed, first := s.orc.checkAll(s.kept)
	s.res.Failed += failed
	s.noteFailure(first)
	return nil
}

// noteFailure keeps the first failure of the run for the report.
func (s *session) noteFailure(err error) {
	if s.res.firstErr == nil {
		s.res.firstErr = err
	}
}

// measured is what a stretch of rounds produced.
type measured struct {
	ops   [][]float64           // per round: latency of each gated op, ms
	rps   []float64             // per round: requests per second of the throughput pass
	kinds [numKinds][][]float64 // per kind, per round: request latencies, ms
	reqs  int                   // every request of the recorded rounds
	tpN   int                   // requests in one round's throughput pass
	cpuS  float64               // process CPU seconds spent inside the rounds
	gcS   float64               // stop-the-world pause inside the rounds
	steal float64               // clock ticks stolen by the hypervisor during the rounds
	ticks float64               // all clock ticks during the rounds
}

// measure issues the schedule's next n rounds, with a forced collection
// before each so no round inherits another's garbage, and records them.
func (s *session) measure(n int) measured {
	var m measured
	for r := 0; r < n; r++ {
		s.last = s.sched.next()
		runtime.GC()
		cpu0, gc0 := cpuSeconds(), gcPauseSeconds()
		steal0, ticks0 := stolenTicks()
		single, closed := s.gen.runRound(&s.last)
		cpu1, gc1 := cpuSeconds(), gcPauseSeconds()
		steal1, ticks1 := stolenTicks()
		s.account(single)
		s.account(closed)
		m.cpuS += cpu1 - cpu0
		m.gcS += gc1 - gc0
		m.steal += steal1 - steal0
		m.ticks += ticks1 - ticks0
		m.ops = append(m.ops, single.opMs)
		tp := closed
		if tp == nil {
			tp = single
		}
		m.reqs += single.reqs
		if closed != nil {
			m.reqs += closed.reqs
		}
		m.tpN = tp.reqs
		m.rps = append(m.rps, float64(tp.reqs)/tp.wall.Seconds())
		for k := range m.kinds {
			if len(single.kindMs[k]) > 0 {
				m.kinds[k] = append(m.kinds[k], single.kindMs[k])
			}
		}
	}
	return m
}

// warmUp issues the schedule's first round and throws its timings away:
// caches fill, pools and connections open. Its responses are still
// checked.
func (s *session) warmUp() { s.measure(1) }

// hitRatio is the response cache's hit ratio since the given counts.
func (s *session) hitRatio(hits0, misses0 uint64) float64 {
	hits, misses := s.e.srv.Cache().Stats()
	if n := (hits - hits0) + (misses - misses0); n > 0 {
		return float64(hits-hits0) / float64(n)
	}
	return 0
}

// runEndToEnd is a --trace 0 run: warm-up, the measured rounds, the
// workload's own correctness conditions, and the five end-to-end
// metrics.
func runEndToEnd(cfg runConfig) (*result, error) {
	s, err := open(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := s.res

	s.warmUp()
	hits0, misses0 := s.e.srv.Cache().Stats()
	m := s.measure(cfg.rounds)
	res.cpuMsReq = m.cpuS * 1000 / float64(m.reqs)
	res.gcPauseMs = m.gcS * 1000
	if m.ticks > 0 {
		res.Env.StealPct = m.steal / m.ticks * 100
	}
	res.hitRatio = s.hitRatio(hits0, misses0)
	if cfg.workload == wlLiveChurn {
		tail := &passResult{}
		s.gen.runOps(buildReloads(s.last, cfg.sc.sizes), tail)
		s.account(tail)
		// Each reload is a round of one.
		res.Kinds[kReload.String()] = acrossRounds(tail.kindMs[kReload], false, 1)
	}
	res.meanBatch = s.e.srv.Metrics().Snapshot().Batch.MeanSize
	// The peak so far is set-up, the server and the load generator; what
	// the oracle builds next is the benchmark's, not the system's.
	rss := peakRSSMB()
	if err := s.verify(); err != nil {
		return nil, err
	}
	s.conditions()

	p50, _ := roundQuantile(m.ops, 0.5)
	p90, ok := roundQuantile(m.ops, 0.9)
	if !ok {
		return nil, fmt.Errorf("%s: rounds of %d gated samples cannot support a p90", cfg.workload, p90.PerRound)
	}
	tput := acrossRounds(m.rps, true, m.tpN)
	res.Estimates["latency_p50_ms"], res.Estimates["latency_p90_ms"], res.Estimates["throughput_rps"] = p50, p90, tput
	for k := range m.kinds {
		if len(m.kinds[k]) > 0 {
			res.Kinds[kind(k).String()], _ = roundQuantile(m.kinds[k], 0.5)
		}
	}
	res.Correct = res.Failed == 0
	values := map[string]float64{
		"latency_p50_ms": p50.Value,
		"latency_p90_ms": p90.Value,
		"throughput_rps": tput.Value,
		"setup_s":        s.e.times.total,
		"rss_mb":         rss,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	for _, m := range endToEnd {
		if e, ok := res.Estimates[m.name]; ok && e.SpreadPct > disturbedPct {
			res.Disturbed = append(res.Disturbed, fmt.Sprintf("%s rounds spread %.1f%%", m.name, e.SpreadPct))
		}
	}
	s.printEndToEnd()
	return res, nil
}

// conditions checks what each workload promises about itself: the cache
// behaves as the workload was designed for, and the quantized answers
// keep their documented recall. A broken promise is a failed operation.
func (s *session) conditions() {
	res := s.res
	fail := func(format string, a ...any) {
		res.Failed++
		s.noteFailure(fmt.Errorf(format, a...))
	}
	switch s.cfg.workload {
	case wlJointMiss:
		if res.hitRatio != 0 {
			fail("joint-miss saw cache hit ratio %.4f, want 0", res.hitRatio)
		}
	case wlMixedHot:
		want := 1 - 1/float64(s.cfg.sc.sizes.coldEvery)
		if res.hitRatio < want-0.01 || res.hitRatio > want+1e-9 {
			fail("mixed-hot saw cache hit ratio %.4f, want [%.2f, %.2f]", res.hitRatio, want-0.01, want)
		}
	case wlVariants:
		if r := s.orc.recall(); r < minQuantizedRecall {
			fail("quantized recall@10 %.4f over %d answers, want >= %.2f", r, s.orc.recallN, minQuantizedRecall)
		}
	}
}

func (s *session) printEndToEnd() {
	w, res := s.cfg.report, s.res
	fmt.Fprintf(w, "%s  seed %d  city %s  %d rounds  GOMAXPROCS %d  nproc %d  %s\n",
		res.Workload, res.Seed, res.City, s.cfg.rounds, res.Env.GoMaxProcs, res.Env.NumCPU, res.Env.GoVersion)
	fmt.Fprintf(w, "  set-up %.3f s (assemble %.3f, train %.3f, warm %.3f, other %.3f); city generated in %.3f s\n",
		res.setup.total, res.setup.assemble, res.setup.train, res.setup.warm, res.setup.extra, res.genS)
	for _, m := range endToEnd {
		v := res.Metrics[m.name]
		if e, ok := res.Estimates[m.name]; ok {
			fmt.Fprintf(w, "  %-16s %12.4f %-4s good-side quartile of %d rounds (spread %.1f%%), %d samples each\n",
				m.name, v.Value, v.Unit, e.Rounds, e.SpreadPct, e.PerRound)
		} else {
			fmt.Fprintf(w, "  %-16s %12.4f %s\n", m.name, v.Value, v.Unit)
		}
	}
	for k := kind(0); k < numKinds; k++ {
		if e, ok := res.Kinds[k.String()]; ok {
			fmt.Fprintf(w, "  %-20s %8.4f ms   good-side quartile of %d rounds (spread %.1f%%), %d samples each\n",
				kindMetric(k), e.Value, e.Rounds, e.SpreadPct, e.PerRound)
		}
	}
	fmt.Fprintf(w, "  cache hit ratio %.4f; coalescer mean batch %.2f; %.3f CPU ms per request; GC paused %.1f ms; %.2f%% of CPU time stolen\n",
		res.hitRatio, res.meanBatch, res.cpuMsReq, res.gcPauseMs, res.Env.StealPct)
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	if res.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", res.firstErr)
	}
	for _, d := range res.Disturbed {
		fmt.Fprintf(w, "  disturbed: %s (above %d%%: the box was busy; treat this run with suspicion)\n", d, disturbedPct)
	}
}
