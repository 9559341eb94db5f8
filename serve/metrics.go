package serve

import (
	"io"
	"strconv"
	"sync"
	"time"

	"ebsn"
	"ebsn/internal/obs"
)

// latencyBoundsSeconds are the request-latency histogram bucket upper
// bounds, 50 µs to 5 s. Observations above the last bound land in an
// overflow bucket. Fixed buckets keep Observe lock-free (one atomic
// increment) at the cost of interpolated quantiles — the standard
// serving trade-off.
var latencyBoundsSeconds = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// taBoundsSeconds are the TA in-index search-time buckets: the engine
// answers city-scale queries in hundreds of microseconds, so the request
// buckets above would collapse its whole distribution into two buckets.
var taBoundsSeconds = []float64{
	0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

// EndpointMetrics aggregates one endpoint's counters and latency
// histogram — children of the endpoint-labeled registry families,
// resolved once at startup so the hot path never touches the vec maps.
type EndpointMetrics struct {
	requests *obs.Counter
	err4xx   *obs.Counter
	err5xx   *obs.Counter
	hist     *obs.Histogram
}

// Observe records one finished request with its HTTP status.
func (e *EndpointMetrics) Observe(status int, d time.Duration) {
	e.requests.Inc()
	switch {
	case status >= 500:
		e.err5xx.Inc()
	case status >= 400:
		e.err4xx.Inc()
	}
	e.hist.Observe(d)
}

// Metrics is the server-wide instrument panel: per-endpoint counters and
// latency histograms, load-shedding and panic counts, in-flight and
// draining gauges, and cumulative TA search work. Every instrument lives
// in an obs.Registry, and /metrics renders the whole panel as Prometheus
// text — the only metrics surface. Recording on the hot path never takes
// a lock.
type Metrics struct {
	start time.Time
	reg   *obs.Registry

	endpoints map[string]*EndpointMetrics

	shed     *obs.Counter
	panics   *obs.Counter
	inflight *obs.Gauge
	draining *obs.Gauge

	taQueries    *obs.Counter
	taSorted     *obs.Counter
	taRandom     *obs.Counter
	taCandidates *obs.Counter
	taDuration   *obs.Histogram

	shardQueries  *obs.Counter
	shardSearches *obs.CounterVec
	shardWall     *obs.HistogramVec

	// Batched-admission panel: dispatch widths (explicit POST batches
	// and coalesced windows), requests answered through the coalescer,
	// and over-cap rejections.
	batchSize     *obs.Histogram
	coalesced     *obs.Counter
	batchRejected *obs.Counter

	// Streaming-ingest panel: per-source arrival counters (bounded label
	// cardinality — see RecordIngest) and the background-compaction
	// lifecycle.
	ingestEvents       *obs.CounterVec
	ingestMu           sync.Mutex
	ingestSrc          map[string]*obs.Counter
	compactions        *obs.Counter
	compactionFailures *obs.Counter
	compactionRunning  *obs.Gauge
	compactionDuration *obs.Histogram
	compactedEvents    *obs.Counter

	// Scenario-workload panel: requests answered by the group,
	// constrained, and feed surfaces, by kind. The kind set is fixed at
	// startup so recording stays lock-free.
	workload map[string]*obs.Counter

	// Zero-copy index-artifact panel: successful mapped loads (with
	// their map+verify duration), preparations that fell back to a full
	// rebuild, and artifact rewrites after such a rebuild.
	artifactLoads     *obs.Counter
	artifactFallbacks *obs.Counter
	artifactSaves     *obs.Counter
	artifactLoadDur   *obs.Histogram
}

// compactionBoundsSeconds are the background-fold duration buckets:
// milliseconds on the tiny presets up to tens of seconds at city scale.
var compactionBoundsSeconds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// NewMetrics creates a Metrics with one EndpointMetrics per name. The
// endpoint set is fixed at creation so lookups are lock-free, and every
// series exists from the first scrape (explicit zeros, no appearing
// series).
func NewMetrics(endpointNames ...string) *Metrics {
	m := &Metrics{
		start:     time.Now(),
		reg:       obs.NewRegistry(),
		endpoints: make(map[string]*EndpointMetrics, len(endpointNames)),
	}
	m.reg.GaugeFunc("ebsn_serve_uptime_seconds",
		"Seconds since the metrics panel (process) started.",
		func() float64 { return time.Since(m.start).Seconds() })
	req := m.reg.CounterVec("ebsn_serve_requests_total",
		"Finished /v1 requests, by endpoint.", "endpoint")
	errs := m.reg.CounterVec("ebsn_serve_request_errors_total",
		"Finished /v1 requests with error statuses, by endpoint and status class.",
		"endpoint", "class")
	hist := m.reg.HistogramVec("ebsn_serve_request_duration_seconds",
		"Request handler latency, by endpoint.", latencyBoundsSeconds, "endpoint")
	for _, name := range endpointNames {
		m.endpoints[name] = &EndpointMetrics{
			requests: req.With(name),
			err4xx:   errs.With(name, "4xx"),
			err5xx:   errs.With(name, "5xx"),
			hist:     hist.With(name),
		}
	}
	m.shed = m.reg.Counter("ebsn_serve_shed_total",
		"Requests rejected 503 by the concurrency limiter.")
	m.panics = m.reg.Counter("ebsn_serve_panics_total",
		"Recovered handler panics.")
	m.inflight = m.reg.Gauge("ebsn_serve_in_flight",
		"Requests currently inside /v1 handlers.")
	m.draining = m.reg.Gauge("ebsn_serve_draining",
		"1 while the server drains in-flight requests during shutdown.")
	m.taQueries = m.reg.Counter("ebsn_serve_ta_queries_total",
		"Joint event-partner queries answered by the TA index.")
	m.taSorted = m.reg.Counter("ebsn_serve_ta_sorted_accesses_total",
		"Partner bounds popped across all TA queries.")
	m.taRandom = m.reg.Counter("ebsn_serve_ta_random_accesses_total",
		"Candidate scores materialized across all TA queries.")
	m.taCandidates = m.reg.Counter("ebsn_serve_ta_candidates_total",
		"Candidate pairs in scope across all TA queries (pruning denominator).")
	m.taDuration = m.reg.Histogram("ebsn_serve_ta_duration_seconds",
		"Wall-clock time per query inside the TA index.", taBoundsSeconds)
	m.shardQueries = m.reg.Counter("ebsn_serve_shard_fanout_total",
		"Queries answered by the sharded scatter-gather engine.")
	m.shardSearches = m.reg.CounterVec("ebsn_serve_shard_searches_total",
		"Per-shard TA searches executed by engine fan-outs.", "shard")
	m.shardWall = m.reg.HistogramVec("ebsn_serve_shard_wall_seconds",
		"Wall-clock duration of one shard's search within a fan-out.",
		taBoundsSeconds, "shard")
	m.batchSize = m.reg.Histogram("ebsn_serve_batch_size",
		"Users per batched engine dispatch (POST batches and coalesced windows).",
		batchSizeBounds)
	m.coalesced = m.reg.Counter("ebsn_serve_coalesced_requests_total",
		"Single-user partner queries answered through the micro-batching coalescer.")
	m.batchRejected = m.reg.Counter("ebsn_serve_batch_rejected_total",
		"Batched queries rejected 400 for exceeding the configured user cap.")
	m.ingestEvents = m.reg.CounterVec("ebsn_serve_ingest_events_total",
		"Live events accepted by /v1/ingest, by source attribution.", "source")
	m.ingestSrc = make(map[string]*obs.Counter)
	m.compactions = m.reg.Counter("ebsn_serve_compactions_total",
		"Background delta compactions completed (successes and failures).")
	m.compactionFailures = m.reg.Counter("ebsn_serve_compaction_failures_total",
		"Background delta compactions that failed or were superseded.")
	m.compactionRunning = m.reg.Gauge("ebsn_serve_compaction_running",
		"1 while a background delta compaction is in flight.")
	m.compactionDuration = m.reg.Histogram("ebsn_serve_compaction_duration_seconds",
		"Wall-clock duration of one background delta fold (build + swap).",
		compactionBoundsSeconds)
	m.compactedEvents = m.reg.Counter("ebsn_serve_compacted_events_total",
		"Live events folded from the delta into the main index.")
	wl := m.reg.CounterVec("ebsn_serve_workload_requests_total",
		"Scenario workload requests served, by kind (group aggregation, predicate-constrained, feed).",
		"kind")
	m.workload = make(map[string]*obs.Counter, len(workloadKinds))
	for _, kind := range workloadKinds {
		m.workload[kind] = wl.With(kind)
	}
	m.artifactLoads = m.reg.Counter("ebsn_serve_artifact_loads_total",
		"Joint indexes brought up by mapping a zero-copy artifact instead of rebuilding.")
	m.artifactFallbacks = m.reg.Counter("ebsn_serve_artifact_fallback_rebuilds_total",
		"Index preparations that fell back to a full rebuild (artifact missing, corrupt, or stale).")
	m.artifactSaves = m.reg.Counter("ebsn_serve_artifact_saves_total",
		"Index artifacts (re)written after a rebuild.")
	m.artifactLoadDur = m.reg.Histogram("ebsn_serve_artifact_load_seconds",
		"Time to map and checksum-verify an index artifact on a successful zero-copy load.",
		compactionBoundsSeconds)
	return m
}

// batchSizeBounds are the batch-width histogram buckets, in users per
// dispatch (the histogram's "seconds" are unitless counts here).
var batchSizeBounds = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// RecordBatch observes one explicit batched dispatch of the given width.
func (m *Metrics) RecordBatch(size int) { m.batchSize.ObserveSeconds(float64(size)) }

// RecordCoalesced counts size requests answered by one coalesced
// dispatch and observes the dispatch width.
func (m *Metrics) RecordCoalesced(size int) {
	m.coalesced.Add(uint64(size))
	m.batchSize.ObserveSeconds(float64(size))
}

// RecordBatchRejected counts one batch rejected for exceeding the
// configured user cap.
func (m *Metrics) RecordBatchRejected() { m.batchRejected.Inc() }

// maxIngestSources bounds the source label cardinality; arrivals past
// the cap are attributed to "_other" so a misbehaving client cannot
// grow the exposition without bound.
const maxIngestSources = 64

// RecordIngest counts n accepted events for the source and returns the
// source's running total. Unknown sources allocate a new labeled child
// until the cardinality cap, then collapse into "_other".
func (m *Metrics) RecordIngest(source string, n int) uint64 {
	m.ingestMu.Lock()
	c, ok := m.ingestSrc[source]
	if !ok {
		if len(m.ingestSrc) >= maxIngestSources {
			source = "_other"
			c, ok = m.ingestSrc[source]
		}
		if !ok {
			c = m.ingestEvents.With(source)
			m.ingestSrc[source] = c
		}
	}
	m.ingestMu.Unlock()
	c.Add(uint64(n))
	return c.Value()
}

// workloadKinds is the fixed label set of the workload request counter.
var workloadKinds = []string{workloadGroup, workloadConstrained, workloadFeed}

// RecordWorkload counts one scenario-workload request of the given kind
// (one of workloadKinds; unknown kinds are dropped rather than grown
// into new series).
func (m *Metrics) RecordWorkload(kind string) {
	if c := m.workload[kind]; c != nil {
		c.Inc()
	}
}

// RecordArtifactLoad counts one successful zero-copy index load and its
// map+verify duration.
func (m *Metrics) RecordArtifactLoad(d time.Duration) {
	m.artifactLoads.Inc()
	m.artifactLoadDur.Observe(d)
}

// RecordArtifactFallback counts one index preparation that fell back to
// a full rebuild because the artifact was missing, corrupt, or stale.
func (m *Metrics) RecordArtifactFallback() { m.artifactFallbacks.Inc() }

// RecordArtifactSave counts one artifact rewritten after a rebuild.
func (m *Metrics) RecordArtifactSave() { m.artifactSaves.Inc() }

// CompactionStarted flips the running gauge up; pair with CompactionDone.
func (m *Metrics) CompactionStarted() { m.compactionRunning.Set(1) }

// CompactionDone records one finished background compaction: duration,
// events folded (on success), and the failure counter when err is
// non-nil. The running gauge flips down last, so a scrape that reads it
// at 0 also reads this run in the counters.
func (m *Metrics) CompactionDone(d time.Duration, folded int, err error) {
	m.compactions.Inc()
	m.compactionDuration.Observe(d)
	if err != nil {
		m.compactionFailures.Inc()
	} else {
		m.compactedEvents.Add(uint64(folded))
	}
	m.compactionRunning.Set(0)
}

// Registry exposes the underlying registry so the server can attach
// scrape-time instruments (cache, reload, model state) next to the
// request panel.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// WriteExposition renders every registered family as Prometheus text
// exposition format 0.0.4.
func (m *Metrics) WriteExposition(w io.Writer) error { return m.reg.WritePrometheus(w) }

// Endpoint returns the metrics bucket for name (nil when unknown).
func (m *Metrics) Endpoint(name string) *EndpointMetrics { return m.endpoints[name] }

// RecordShed counts one load-shed (503) response.
func (m *Metrics) RecordShed() { m.shed.Inc() }

// RecordPanic counts one recovered handler panic.
func (m *Metrics) RecordPanic() { m.panics.Inc() }

// RecordTA folds one TA query's work counters and in-index duration into
// the running totals.
func (m *Metrics) RecordTA(s ebsn.SearchStats) {
	m.taQueries.Inc()
	m.taSorted.Add(uint64(s.SortedAccesses))
	m.taRandom.Add(uint64(s.RandomAccesses))
	m.taCandidates.Add(uint64(s.Candidates))
	m.taDuration.Observe(s.Elapsed)
}

// RecordEngine folds one scatter-gather query's fan-out into the shard
// metrics: the fan-out counter, and per shard a search count and a wall
// -duration observation. Shard labels are the engine's shard indices, so
// a skewed partner range shows up as one shard's histogram drifting
// right. The aggregated TA counters are recorded separately via
// RecordTA.
func (m *Metrics) RecordEngine(es ebsn.EngineStats) {
	m.shardQueries.Inc()
	for _, ss := range es.Shards {
		label := strconv.Itoa(ss.Shard)
		m.shardSearches.With(label).Inc()
		m.shardWall.With(label).Observe(ss.Wall)
	}
}

// AddInFlight moves the in-flight request gauge by delta.
func (m *Metrics) AddInFlight(delta int64) { m.inflight.Add(float64(delta)) }

// InFlight reads the in-flight request gauge — the number the drain path
// logs and the final scrape reports during shutdown.
func (m *Metrics) InFlight() int64 { return int64(m.inflight.Value()) }

// SetDraining flips the draining gauge, marking every later scrape as
// taken during shutdown.
func (m *Metrics) SetDraining() { m.draining.Set(1) }

// BatchSnapshot is the mean users per batched dispatch (POST batches
// and coalesced windows): ebsn_serve_batch_size_sum / _count. It
// remains only because the benchmark harness reads it (ROADMAP 1f).
type BatchSnapshot struct {
	MeanSize float64
}

// MetricsSnapshot is Snapshot's result. It remains only because the
// benchmark harness reads Snapshot().Batch.MeanSize (ROADMAP 1f); every
// figure of the panel is a family on /metrics.
type MetricsSnapshot struct {
	Batch BatchSnapshot
}

// Snapshot reads the batch-width mean without stopping writers. It
// remains only because the benchmark harness calls it (ROADMAP 1f).
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{Batch: BatchSnapshot{MeanSize: m.batchSize.Mean()}}
}
