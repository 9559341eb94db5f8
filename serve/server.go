package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ebsn"
	"ebsn/internal/obs"
	"ebsn/internal/text"
)

// Config tunes the server. The zero value is serviceable: every field
// has a production-shaped default.
type Config struct {
	// PruneK is the per-partner candidate pruning for PrepareJoint:
	// 0 keeps the paper's 5%-of-test-events heuristic, < 0 keeps the
	// full candidate space, > 0 is used as-is.
	PruneK int
	// Shards is the partner-range shard count of the scatter-gather
	// query engine built by Warm and Reload (default 1). Values above 1
	// fan each /v1/partners query out to per-shard TA searches running
	// concurrently; answers are bit-identical for every setting.
	Shards int
	// Quantized routes joint queries through int8-quantized candidate
	// mirrors (EnableQuantizedQueries): ~4x smaller candidate storage
	// with approximate rankings (recall@10 ≥ 0.99 against exact). Off by
	// default — see OPERATIONS.md for when to enable it.
	Quantized bool
	// DefaultN is the result count when ?n= is absent (default 10).
	DefaultN int
	// MaxN caps ?n= (default 100).
	MaxN int
	// MaxBatch caps the users of one batched POST query (default 64);
	// larger batches are rejected 400 and counted in /metrics.
	MaxBatch int
	// CoalesceWindow enables the micro-batching admission layer when
	// positive: cache-missing single-user GET /v1/partners requests are
	// held up to this long and dispatched as one engine batch. 0 (the
	// default) disables coalescing; the daemon flags it on at 200µs.
	CoalesceWindow time.Duration
	// CoalesceBatch caps one coalesced dispatch (default 16); the
	// arrival that fills the batch dispatches it without waiting out
	// the window.
	CoalesceBatch int
	// CacheCapacity is the total cached responses (default 4096;
	// < 0 disables caching).
	CacheCapacity int
	// CacheShards is the cache shard count (default 8).
	CacheShards int
	// CacheTTL bounds entry staleness (default 60s; < 0 disables expiry).
	CacheTTL time.Duration
	// FeedTTL bounds GET /v1/feed staleness: cached feed renders expire
	// at most this long after they were computed, even when the cache
	// generation has not moved (default 30s; < 0 leaves feeds bounded
	// only by CacheTTL and generation bumps).
	FeedTTL time.Duration
	// AutoCompactEvents kicks a background delta compaction once the
	// pending live-event count reaches this threshold (0 disables —
	// compaction then runs only on explicit /v1/compact).
	AutoCompactEvents int
	// MaxInFlight is the concurrency bound before load shedding
	// (default 256).
	MaxInFlight int
	// RequestTimeout bounds handler time per request (default 5s;
	// < 0 disables). Response-cache hits are answered ahead of it.
	RequestTimeout time.Duration
	// DrainTimeout bounds connection draining on shutdown (default 10s).
	DrainTimeout time.Duration
	// SnapshotPath is the default model snapshot file for Reload — what
	// /v1/reload (with an empty body) and the daemon's SIGHUP handler
	// load. Empty means reloads must name a path explicitly.
	SnapshotPath string
	// ArtifactPath, when set, is the zero-copy index artifact Warm and
	// Reload try to map (PrepareJointFromArtifact) before falling back
	// to a full PrepareJointSharded rebuild. After a fallback rebuild
	// the artifact is rewritten in place, so the next start or reload
	// maps instantly. Empty disables artifact use.
	ArtifactPath string
	// Logger receives access-log and panic lines (nil = quiet).
	Logger *log.Logger
	// AccessLog enables per-request log lines on Logger.
	AccessLog bool
	// TraceEnabled turns request-scoped tracing on at startup. Off it
	// costs nothing (spans are nil); it can also be toggled at runtime
	// via Server.Tracer.
	TraceEnabled bool
	// SlowQueryThreshold is the span duration at which a traced request
	// is captured into the slow-query ring (default 100ms; < 0 disables
	// capture while keeping span counting).
	SlowQueryThreshold time.Duration
	// SlowLogSize is the slow-query ring capacity (default 128).
	SlowLogSize int
}

func (c *Config) fill() {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.DefaultN == 0 {
		c.DefaultN = 10
	}
	if c.MaxN == 0 {
		c.MaxN = 100
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.CoalesceBatch == 0 {
		c.CoalesceBatch = 16
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 4096
	}
	if c.CacheShards == 0 {
		c.CacheShards = 8
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = time.Minute
	}
	if c.FeedTTL == 0 {
		c.FeedTTL = 30 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = 100 * time.Millisecond
	}
	if c.SlowLogSize == 0 {
		c.SlowLogSize = 128
	}
}

// Server wraps a Recommender in the production HTTP stack. Create with
// New, then call Warm to build the TA index and flip readiness.
//
// Concurrency: query handlers hold a read lock while they compute (a
// response-cache hit takes no lock at all); ingestion and the two
// swap points (the reload pointer swap and the compaction install) hold
// the write lock, serializing the Recommender's mutating methods as its
// contract requires. Both heavy builds run entirely outside the lock:
// Reload constructs its replacement Recommender off the request path,
// and the background compaction folds the delta into a fresh index on a
// copy — queries never wait on either, only on the pointer-swap
// critical sections.
type Server struct {
	cfg      Config
	cache    *Cache
	metrics  *Metrics
	tracer   *obs.Tracer
	handler  http.Handler
	timeout  Middleware // Config.RequestTimeout around whatever can block
	coalesce *coalescer // nil unless Config.CoalesceWindow > 0

	mu     sync.RWMutex // guards rec (the pointer and its live/ingest state)
	rec    *ebsn.Recommender
	gen    atomic.Uint64
	ready  atomic.Bool
	pruneK atomic.Int64 // resolved PrepareJoint argument, for metrics/spans

	reloadMu sync.Mutex // serializes Reload calls end to end
	reload   reloadState

	compact compactState

	// journal records every accepted live ingest since startup so Reload
	// can replay them onto the fresh model instead of dropping them.
	// Appends happen while holding s.mu (write), so holding s.mu also
	// stabilizes the journal; journalMu alone suffices for snapshots.
	journalMu sync.Mutex
	journal   []ingestRecord
}

// ingestRecord is one replayable live ingest.
type ingestRecord struct {
	words  []string
	venue  int32
	start  time.Time
	source string
}

// compactState tracks the single-flight background compaction: at most
// one fold runs at a time, and waiters (POST /v1/compact?wait=1) block
// on the done channel of the in-flight run.
type compactState struct {
	mu         sync.Mutex
	running    bool
	done       chan struct{}
	count      uint64
	failures   uint64
	folded     uint64
	lastDur    time.Duration
	lastFolded int
	lastErr    string
	lastAt     time.Time
}

// reloadState is the observability record behind /metrics' reload
// section. Reloads are rare; a mutex is fine.
type reloadState struct {
	mu        sync.Mutex
	count     uint64
	failures  uint64
	lastOK    time.Time
	lastErr   string
	lastErrAt time.Time
}

// endpointNames is the fixed metrics key set, one per instrumented route.
const (
	epEvents        = "events"
	epEventsBatch   = "events_batch"
	epPartners      = "partners"
	epPartnersBatch = "partners_batch"
	epPartnersLive  = "partners_live"
	epExplain       = "explain"
	epIngest        = "ingest"
	epCompact       = "compact"
	epGroup         = "group_events"
	epFeed          = "feed"
)

// New assembles the server around a trained recommender. The joint
// index is not built yet — call Warm (readiness stays false and /v1
// endpoints answer 503 until then).
func New(rec *ebsn.Recommender, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		rec: rec,
		cfg: cfg,
		metrics: NewMetrics(epEvents, epEventsBatch, epPartners, epPartnersBatch,
			epPartnersLive, epExplain, epIngest, epCompact, epGroup, epFeed),
		tracer:  obs.NewTracer(cfg.SlowLogSize, cfg.SlowQueryThreshold),
		timeout: WithTimeout(cfg.RequestTimeout),
	}
	s.tracer.SetEnabled(cfg.TraceEnabled)
	if cfg.CoalesceWindow > 0 {
		s.coalesce = &coalescer{s: s, window: cfg.CoalesceWindow, maxB: cfg.CoalesceBatch}
	}
	if cfg.CacheCapacity > 0 {
		s.cache = NewCache(cfg.CacheCapacity, cfg.CacheShards, cfg.CacheTTL)
	}
	s.registerStateMetrics()

	// The cacheable GETs answer hits ahead of the request timeout and
	// apply it around their compute stage themselves (serveCached); every
	// other route runs under it whole (api).
	api := http.NewServeMux()
	api.HandleFunc("GET /v1/events", s.instrument(epEvents, s.handleEvents))
	api.HandleFunc("POST /v1/events", s.api(epEventsBatch, s.handleEventsBatch))
	api.HandleFunc("GET /v1/partners", s.instrument(epPartners, s.handlePartners))
	api.HandleFunc("POST /v1/partners", s.api(epPartnersBatch, s.handlePartnersBatch))
	api.HandleFunc("GET /v1/partners/live", s.instrument(epPartnersLive, s.handlePartnersLive))
	api.HandleFunc("POST /v1/group/events", s.api(epGroup, s.handleGroupEvents))
	api.HandleFunc("GET /v1/feed", s.instrument(epFeed, s.handleFeed))
	api.HandleFunc("GET /v1/explain", s.api(epExplain, s.handleExplain))
	api.HandleFunc("POST /v1/ingest", s.api(epIngest, s.handleIngest))
	api.HandleFunc("POST /v1/compact", s.api(epCompact, s.handleCompact))

	// Health and metrics bypass shedding and timeouts: a saturated
	// server must still answer its orchestrator.
	root := http.NewServeMux()
	root.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	root.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})
	root.HandleFunc("GET /metrics", s.handleMetrics)
	// The slowlog bypasses shedding too: it exists to be read while the
	// server is struggling.
	root.HandleFunc("GET /v1/debug/slowlog", s.handleSlowlog)
	// Reload bypasses shedding and the request timeout: rebuilding the
	// TA index can take longer than a query budget, and a saturated
	// server must still accept the swap that might relieve it.
	root.HandleFunc("POST /v1/reload", s.handleReload)
	root.Handle("/v1/", Chain(api,
		WithConcurrencyLimit(cfg.MaxInFlight, s.metrics.RecordShed),
	))

	var accessLogger *log.Logger
	if cfg.AccessLog {
		accessLogger = cfg.Logger
	}
	s.handler = Chain(root,
		WithLogging(accessLogger),
		WithRecovery(cfg.Logger, s.metrics.RecordPanic),
	)
	return s
}

// registerStateMetrics attaches scrape-time instruments for state owned
// outside the request panel: serving generation and model state (read
// under the model lock), cache effectiveness, reload history, and
// tracing volume. Reading at scrape time instead of mirroring into
// gauges means the exposition can never go stale.
func (s *Server) registerStateMetrics() {
	reg := s.metrics.Registry()
	obs.RegisterRuntimeMetrics(reg)
	reg.GaugeFunc("ebsn_mapped_bytes",
		"Bytes of zero-copy index artifact storage mapped into the process (outside the Go heap).",
		func() float64 { return float64(ebsn.MappedIndexBytes()) })
	reg.GaugeFunc("ebsn_serve_ready",
		"1 once Warm has built the joint index.",
		func() float64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("ebsn_serve_generation",
		"Cache generation; bumps on ingest, compaction, and reload.",
		func() float64 { return float64(s.gen.Load()) })
	reg.GaugeFunc("ebsn_serve_prune_k",
		"Per-partner candidate pruning applied by PrepareJoint (0 = full space).",
		func() float64 { return float64(s.pruneK.Load()) })
	reg.GaugeFunc("ebsn_serve_quantized",
		"1 while joint queries route through int8-quantized candidate mirrors.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			if s.rec.QuantizedQueries() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("ebsn_serve_engine_shards",
		"Partner-range shards of the scatter-gather engine (0 until Warm).",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.rec.EngineShards())
		})
	reg.GaugeFunc("ebsn_serve_live_events",
		"Live-ingested events layered on the serving snapshot (total since the last reload).",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.rec.LiveEventCount())
		})
	reg.GaugeFunc("ebsn_serve_delta_events",
		"Live events pending in the mutable delta, awaiting background compaction.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.rec.PendingLiveEvents())
		})
	reg.GaugeFunc("ebsn_serve_delta_pairs",
		"Candidate pairs in the mutable delta overlay scanned by every live query.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.rec.PendingLivePairs())
		})
	reg.GaugeFunc("ebsn_serve_model_steps",
		"Gradient steps of the serving model snapshot.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.rec.Model().Steps())
		})
	reg.CounterFunc("ebsn_serve_reloads_total",
		"Successful zero-downtime model reloads.",
		func() uint64 {
			s.reload.mu.Lock()
			defer s.reload.mu.Unlock()
			return s.reload.count
		})
	reg.CounterFunc("ebsn_serve_reload_failures_total",
		"Model reloads that failed and left the old model serving.",
		func() uint64 {
			s.reload.mu.Lock()
			defer s.reload.mu.Unlock()
			return s.reload.failures
		})
	reg.CounterFunc("ebsn_serve_trace_spans_total",
		"Request spans recorded while tracing was enabled.",
		s.tracer.Spans)
	reg.CounterFunc("ebsn_serve_trace_slow_total",
		"Spans that crossed the slow-query threshold into the slowlog.",
		s.tracer.Slow)
	if s.cache != nil {
		reg.CounterFunc("ebsn_serve_cache_hits_total",
			"Response cache hits.",
			func() uint64 { h, _ := s.cache.Stats(); return h })
		reg.CounterFunc("ebsn_serve_cache_misses_total",
			"Response cache misses.",
			func() uint64 { _, m := s.cache.Stats(); return m })
		reg.GaugeFunc("ebsn_serve_cache_entries",
			"Responses currently cached.",
			func() float64 { return float64(s.cache.Len()) })
		reg.GaugeFunc("ebsn_serve_cache_capacity",
			"Response cache capacity.",
			func() float64 { return float64(s.cache.Capacity()) })
		reg.GaugeFunc("ebsn_serve_cache_bytes",
			"Summed length of the cached response bodies, orphaned generations included.",
			func() float64 { return float64(s.cache.residentBytes()) })
	}
}

// Warm builds the scatter-gather engine (PrepareJointSharded with
// Config.Shards partner-range shards) and marks the server ready. Safe
// to call from a goroutine while the listener is already up: /healthz
// answers during warm-up, /readyz flips afterwards.
func (s *Server) Warm() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ready.Load() {
		return nil
	}
	pk := s.resolvePruneK(s.rec)
	if err := s.prepareIndex(s.rec, pk); err != nil {
		return err
	}
	s.pruneK.Store(int64(pk))
	s.ready.Store(true)
	return nil
}

// prepareIndex brings rec's joint engine up: when Config.ArtifactPath
// is set it first tries to map the zero-copy artifact there, and only
// on failure (missing, corrupt, or stale file) falls back to a full
// PrepareJointSharded rebuild — after which it rewrites the artifact so
// the next start maps instantly. Both paths end by enabling quantized
// routing when configured. Loads, fallbacks, and saves all land in
// /metrics.
func (s *Server) prepareIndex(rec *ebsn.Recommender, pk int) error {
	mapped := false
	if s.cfg.ArtifactPath != "" {
		start := time.Now()
		if err := rec.PrepareJointFromArtifact(s.cfg.ArtifactPath, pk, s.cfg.Shards); err == nil {
			mapped = true
			s.metrics.RecordArtifactLoad(time.Since(start))
			if s.cfg.Logger != nil {
				s.cfg.Logger.Printf("mapped index artifact %s in %s", s.cfg.ArtifactPath, time.Since(start).Round(time.Microsecond))
			}
		} else {
			s.metrics.RecordArtifactFallback()
			if s.cfg.Logger != nil {
				s.cfg.Logger.Printf("index artifact %s unusable (%v); rebuilding", s.cfg.ArtifactPath, err)
			}
		}
	}
	if !mapped {
		if err := rec.PrepareJointSharded(pk, s.cfg.Shards); err != nil {
			return err
		}
	}
	if s.cfg.Quantized {
		if err := rec.EnableQuantizedQueries(); err != nil {
			return err
		}
	}
	// Rewrite the artifact after a rebuild (quantized mirrors included,
	// hence after EnableQuantizedQueries). Best-effort: serving is
	// already healthy, so a failed write only costs the next start a
	// rebuild.
	if s.cfg.ArtifactPath != "" && !mapped {
		if err := rec.SaveIndexArtifact(s.cfg.ArtifactPath); err != nil {
			if s.cfg.Logger != nil {
				s.cfg.Logger.Printf("writing index artifact %s failed: %v", s.cfg.ArtifactPath, err)
			}
		} else {
			s.metrics.RecordArtifactSave()
			if s.cfg.Logger != nil {
				s.cfg.Logger.Printf("wrote index artifact %s", s.cfg.ArtifactPath)
			}
		}
	}
	return nil
}

// resolvePruneK maps Config.PruneK onto a PrepareJoint argument: < 0
// keeps the full candidate space, 0 applies the paper's
// 5%-of-test-events heuristic, > 0 is used as-is.
func (s *Server) resolvePruneK(rec *ebsn.Recommender) int {
	pruneK := s.cfg.PruneK
	switch {
	case pruneK < 0:
		return 0 // PrepareJoint(0) keeps the full space
	case pruneK == 0:
		pruneK = len(rec.Split().TestEvents) / 20
		if pruneK < 1 {
			pruneK = 1
		}
	}
	return pruneK
}

// Reload loads the snapshot at path (Config.SnapshotPath when empty),
// rebuilds a Recommender and its TA index entirely off the request
// path, then atomically swaps it in and bumps the cache generation —
// zero downtime: queries in flight finish against the old model, new
// queries see the new one. Live-ingested events are replayed from the
// ingest journal onto the fresh model (the bulk off-lock; arrivals that
// race the replay are caught up under the final swap lock), so a reload
// never silently drops them. A failed reload leaves the serving model
// untouched; success and failure are both recorded for /metrics.
func (s *Server) Reload(path string) (err error) {
	_, err = s.reload2(path)
	return err
}

func (s *Server) reload2(path string) (replayed int, err error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	defer func() { s.recordReload(path, err) }()

	if path == "" {
		path = s.cfg.SnapshotPath
	}
	if path == "" {
		return 0, errors.New("serve: no snapshot path configured (set Config.SnapshotPath or name one in the reload request)")
	}
	snap, err := ebsn.LoadModelSnapshot(path)
	if err != nil {
		return 0, err
	}
	s.mu.RLock()
	cur := s.rec
	s.mu.RUnlock()
	next, err := cur.WithSnapshot(snap)
	if err != nil {
		return 0, err
	}
	pk := s.resolvePruneK(next)
	if err := s.prepareIndex(next, pk); err != nil {
		return 0, err
	}
	// Replay the journaled live events into the fresh recommender while
	// the old one keeps serving. Ingests that land mid-replay append to
	// the journal under s.mu, so the tail pass below (inside the write
	// lock, which blocks ingest) is guaranteed to see all of them.
	base := s.journalSnapshot()
	replayed = s.replayJournal(next, base)
	s.mu.Lock()
	replayed += s.replayJournal(next, s.journalTail(len(base)))
	s.rec = next
	s.mu.Unlock()
	s.pruneK.Store(int64(pk))
	s.gen.Add(1) // orphan every cached response from the old model
	s.ready.Store(true)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf("reloaded model from %s (steps=%d, generation=%d, replayed=%d live events)",
			path, snap.Steps, s.gen.Load(), replayed)
	}
	return replayed, nil
}

// replayJournal folds the records into rec with the batch verb — four
// events share each pass over the user rows — returning how many
// landed. Failures are logged and skipped: one bad record must not abort
// the reload that 0 or more good ones depend on.
func (s *Server) replayJournal(rec *ebsn.Recommender, records []ingestRecord) int {
	n := 0
	for len(records) > 0 {
		ids, err := rec.IngestColdEvents(coldEvents(records))
		n += len(ids)
		if err == nil {
			break
		}
		// The record at len(ids) failed; the ones before it landed.
		if jr := records[len(ids)]; s.cfg.Logger != nil {
			s.cfg.Logger.Printf("reload: replaying live event (venue=%d source=%q) failed: %v", jr.venue, jr.source, err)
		}
		records = records[len(ids)+1:]
	}
	return n
}

// coldEvents converts ingest records to the facade's batch form.
func coldEvents(records []ingestRecord) []ebsn.ColdEvent {
	out := make([]ebsn.ColdEvent, len(records))
	for i, jr := range records {
		out[i] = ebsn.ColdEvent{Words: jr.words, Venue: jr.venue, Start: jr.start}
	}
	return out
}

func (s *Server) appendJournal(records ...ingestRecord) {
	s.journalMu.Lock()
	s.journal = append(s.journal, records...)
	s.journalMu.Unlock()
}

func (s *Server) journalSnapshot() []ingestRecord {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	out := make([]ingestRecord, len(s.journal))
	copy(out, s.journal)
	return out
}

// journalTail returns the records appended after the first n. Callers
// hold s.mu (write) so the tail cannot grow underneath them.
func (s *Server) journalTail(n int) []ingestRecord {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	if n >= len(s.journal) {
		return nil
	}
	out := make([]ingestRecord, len(s.journal)-n)
	copy(out, s.journal[n:])
	return out
}

func (s *Server) recordReload(path string, err error) {
	s.reload.mu.Lock()
	defer s.reload.mu.Unlock()
	if err == nil {
		// The last failure stays visible as history; last_success vs
		// last_error_at tells the reader which outcome is current.
		s.reload.count++
		s.reload.lastOK = time.Now()
		return
	}
	s.reload.failures++
	s.reload.lastErr = err.Error()
	s.reload.lastErrAt = time.Now()
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf("reload from %q failed: %v", path, err)
	}
}

// Ready reports whether Warm has completed.
func (s *Server) Ready() bool { return s.ready.Load() }

// Generation returns the cache generation counter; it bumps on every
// ingest and compaction, orphaning older cached responses.
func (s *Server) Generation() uint64 { return s.gen.Load() }

// Metrics exposes the server's instrument panel.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer exposes the request tracer, e.g. to toggle sampling at runtime
// or adjust the slow-query threshold without a restart.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Cache returns the response cache (nil when disabled).
func (s *Server) Cache() *Cache { return s.cache }

// ServeHTTP implements http.Handler with the full middleware stack.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Serve accepts connections on l until ctx is canceled, then drains
// in-flight requests for up to Config.DrainTimeout before returning.
// A clean shutdown returns nil. Drain progress is observable: the
// draining gauge flips before the listener stops accepting, so a final
// /metrics scrape over an open connection sees ebsn_serve_draining 1
// alongside the live in-flight count, and the shutdown log lines record
// how many requests the drain waited on and how long it took.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{Handler: s, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	s.metrics.SetDraining()
	inflight := s.metrics.InFlight()
	start := time.Now()
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf("shutdown: draining %d in-flight requests (timeout %s)", inflight, s.cfg.DrainTimeout)
	}
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(sctx)
	if s.cfg.Logger != nil {
		if err != nil {
			s.cfg.Logger.Printf("shutdown: drain timed out after %s with %d requests still in flight: %v",
				time.Since(start).Round(time.Millisecond), s.metrics.InFlight(), err)
		} else {
			s.cfg.Logger.Printf("shutdown: drain complete in %s (%d requests were in flight)",
				time.Since(start).Round(time.Millisecond), inflight)
		}
	}
	if err != nil {
		return err
	}
	<-errc // reap http.ErrServerClosed
	return nil
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}

// instrument wraps a handler with the per-endpoint plumbing every /v1
// route shares: readiness gating, the in-flight gauge, and status +
// latency metrics. It sits outside the request timeout, so a request
// that timed out is counted as the 503 its client got.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.metrics.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "server warming up")
			return
		}
		s.metrics.AddInFlight(1)
		defer s.metrics.AddInFlight(-1)
		rec := recorderFor(w)
		t0 := time.Now()
		h(rec, r)
		ep.Observe(rec.statusOr200(), time.Since(t0))
	}
}

// api is instrument with the whole handler under Config.RequestTimeout.
func (s *Server) api(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrument(name, s.timeout(h).ServeHTTP)
}

// ---- cacheable GETs: one lookup stage, one compute stage ----

// getQuery is one cacheable GET as the lookup stage parsed it: values
// checked for syntax and Config bounds only. Whether the user exists is
// the compute stage's question, asked under the model lock.
type getQuery struct {
	ep       string
	user     int // -1: absent or not a non-negative integer
	n        int // -1: outside [1, MaxN]
	m        int // feeds only; -1: outside [1, MaxN]
	c        ebsn.Constraint
	coalesce bool   // answer a miss through the coalescer, not query
	key      string // "" when a value above is invalid: no lookup, no Put
}

// queryFunc answers a validated getQuery from rec, under the model read
// lock, as the endpoint's wire struct. Handlers pass method expressions
// ((*Server).queryEvents): a method value would allocate per request.
type queryFunc func(s *Server, rec *ebsn.Recommender, q *getQuery, sp *obs.Span) (any, error)

// boundedParam reads an optional count in [1, max]: def when absent, -1
// when present and invalid.
func boundedParam(vals url.Values, name string, def, max int) int {
	raw := vals.Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v <= 0 || v > max {
		return -1
	}
	return v
}

// newQuery parses the parameters every cacheable GET shares out of vals
// (the request's one url.Values) and, when they are all well-formed,
// builds the cache key from them and the current generation.
func (s *Server) newQuery(ep string, vals url.Values, c ebsn.Constraint, feed bool) *getQuery {
	q := &getQuery{ep: ep, user: -1, c: c}
	if u, err := strconv.Atoi(vals.Get("user")); err == nil && u >= 0 {
		q.user = u
	}
	q.n = boundedParam(vals, "n", s.cfg.DefaultN, s.cfg.MaxN)
	if feed {
		q.m = boundedParam(vals, "m", min(defaultFeedPartners, s.cfg.MaxN), s.cfg.MaxN)
	}
	if q.user < 0 || q.n < 0 || q.m < 0 {
		return q
	}
	var buf [96]byte
	k := append(buf[:0], ep...)
	k = strconv.AppendInt(append(k, "|u"...), int64(q.user), 10)
	k = strconv.AppendInt(append(k, "|n"...), int64(q.n), 10)
	k = strconv.AppendUint(append(k, "|g"...), s.gen.Load(), 10)
	if !c.IsZero() {
		// The constraint's canonical form, so distinct filters never
		// share an entry.
		k = append(append(k, "|c"...), c.Key()...)
	}
	if feed {
		k = strconv.AppendInt(append(k, "|m"...), int64(q.m), 10)
		if s.cfg.FeedTTL > 0 {
			// A FeedTTL-wide time bucket: even an idle generation
			// re-renders a feed at most FeedTTL after the last render.
			k = strconv.AppendInt(append(k, "|b"...), time.Now().UnixNano()/int64(s.cfg.FeedTTL), 36)
		}
	}
	q.key = string(k)
	return q
}

// check is the validation the lookup stage could not do: the user
// against the serving model's user space, then the first malformed value
// in the order the endpoints have always reported them.
func (s *Server) check(q *getQuery, numUsers int) error {
	switch {
	case q.user < 0 || q.user >= numUsers:
		return fmt.Errorf("invalid or missing user parameter (0 ≤ user < %d)", numUsers)
	case q.n < 0:
		return fmt.Errorf("invalid n parameter (1 ≤ n ≤ %d)", s.cfg.MaxN)
	case q.m < 0:
		return fmt.Errorf("invalid m parameter (1 ≤ m ≤ %d)", s.cfg.MaxN)
	}
	return nil
}

// serveCached is the lookup stage of every cacheable GET. A hit is a map
// lookup and a Write of the bytes the miss sent: it takes neither the
// model lock (a cached body was valid at its generation by construction,
// so it need not queue behind an ingest holding the write lock) nor a
// timeout goroutine, and never reaches the encoder. Everything else —
// validation against the model, the query, the one encode, the Put — is
// the compute stage, which runs under Config.RequestTimeout.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, q *getQuery, query queryFunc) {
	sp := s.tracer.Start(q.ep)
	if q.key != "" {
		sp.SetAttr("user", int64(q.user))
		sp.SetAttr("n", int64(q.n))
		if q.m > 0 {
			sp.SetAttr("m", int64(q.m))
		}
		if !q.c.IsZero() {
			sp.SetAttr("constrained", 1)
		}
		sp.Stage("cache")
		if s.cache != nil {
			if body, ok := s.cache.Get(q.key); ok {
				sp.SetAttr("cache_hit", 1)
				sp.End()
				writeBody(w, body)
				return
			}
		}
		sp.SetAttr("cache_hit", 0)
	}
	// The span goes with the compute stage: when the timeout fires this
	// goroutine returns while that one is still using it.
	s.timeout(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		defer sp.End()
		s.compute(w, q, sp, query)
	})).ServeHTTP(w, r)
}

// compute is the compute stage: validate under the read lock, answer,
// then encode once, cache the bytes and send them.
func (s *Server) compute(w http.ResponseWriter, q *getQuery, sp *obs.Span, query queryFunc) {
	s.mu.RLock()
	rec := s.rec
	if err := s.check(q, rec.Dataset().NumUsers); err != nil {
		s.mu.RUnlock()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if q.coalesce {
		// Park without the lock: the dispatcher takes its own read lock,
		// and waiting on it while holding ours would deadlock behind a
		// queued writer.
		s.mu.RUnlock()
		s.answerCoalesced(w, q, sp)
		return
	}
	v, err := query(s, rec, q, sp)
	s.mu.RUnlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.writeCached(w, q.key, v)
}

// bodyPool holds the buffers responses are encoded into before the
// exact-size copy the cache keeps is taken.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeCached encodes v once — with encoding/json, so the bytes are the
// ones writeJSON would send — stores them under key and sends them.
func (s *Server) writeCached(w http.ResponseWriter, key string, v any) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body := buf.Bytes()
	if s.cache != nil {
		body = bytes.Clone(body) // the cache keeps this one; buf goes back to the pool
		s.cache.Put(key, body)
	}
	writeBody(w, body)
}

// ---- response shapes ----

// EventResult is one recommended event.
type EventResult struct {
	Event int32   `json:"event"`
	Start string  `json:"start,omitempty"`
	Score float32 `json:"score"`
}

// PairResult is one recommended event-partner pair. Live is true for
// events ingested after training (negative IDs).
type PairResult struct {
	Event   int32   `json:"event"`
	Live    bool    `json:"live,omitempty"`
	Start   string  `json:"start,omitempty"`
	Partner int32   `json:"partner"`
	Friend  bool    `json:"friend"`
	Score   float32 `json:"score"`
}

// RankingResponse is the payload of the three query endpoints.
type RankingResponse struct {
	User   int32         `json:"user"`
	N      int           `json:"n"`
	Events []EventResult `json:"events,omitempty"`
	Pairs  []PairResult  `json:"pairs,omitempty"`
}

// ExplainResponse decomposes one (user, partner, event) score per the
// paper's Eqn. 8.
type ExplainResponse struct {
	User         int32   `json:"user"`
	Partner      int32   `json:"partner"`
	Event        int32   `json:"event"`
	UserEvent    float32 `json:"user_event"`
	PartnerEvent float32 `json:"partner_event"`
	Social       float32 `json:"social"`
	Total        float32 `json:"total"`
	Friend       bool    `json:"friend"`
}

// IngestRequest is the POST /v1/ingest body. Two shapes are accepted:
// the original single-event form (words/venue/start at the top level)
// and a batch form carrying events[] plus an optional source
// attribution. The two are mutually exclusive.
type IngestRequest struct {
	// Words is the event description, tokenized (single-event form).
	Words []string `json:"words,omitempty"`
	// Venue is a known venue ID, the fold-in anchor (single-event form).
	Venue int32 `json:"venue,omitempty"`
	// Start is the event start time, RFC 3339 (single-event form).
	Start time.Time `json:"start,omitempty"`
	// Source attributes the batch to an upstream feed for the
	// per-source ingest counters ("default" when empty).
	Source string `json:"source,omitempty"`
	// Events is the batch form: every event is validated before any is
	// ingested, and the whole batch lands under one generation bump.
	Events []IngestEvent `json:"events,omitempty"`
}

// IngestEvent is one event in a batched ingest. Either pre-tokenized
// words or Schema.org/Event-flavored text fields (name, description,
// keywords — tokenized server-side exactly like the training corpus)
// must yield at least one token, and either start or startDate must be
// set.
type IngestEvent struct {
	Name        string    `json:"name,omitempty"`
	Description string    `json:"description,omitempty"`
	Keywords    []string  `json:"keywords,omitempty"`
	Words       []string  `json:"words,omitempty"`
	Venue       int32     `json:"venue"`
	StartDate   time.Time `json:"startDate,omitempty"`
	Start       time.Time `json:"start,omitempty"`
}

// IngestResponse reports the assigned live event IDs (ID mirrors the
// first for single-event callers) and the resulting overlay state.
type IngestResponse struct {
	ID            int32   `json:"id"`
	IDs           []int32 `json:"ids,omitempty"`
	Ingested      int     `json:"ingested"`
	Source        string  `json:"source,omitempty"`
	SourceTotal   uint64  `json:"source_total,omitempty"`
	LiveEvents    int     `json:"live_events"`
	PendingEvents int     `json:"pending_events"`
	Generation    uint64  `json:"generation"`
}

// CompactResponse reports the compaction state. POST /v1/compact
// returns immediately with started=true while the fold runs in the
// background; ?wait=1 blocks until the in-flight run (this one or an
// earlier one) completes, restoring synchronous semantics.
type CompactResponse struct {
	Started       bool               `json:"started"`
	Running       bool               `json:"running"`
	LiveEvents    int                `json:"live_events"`
	PendingEvents int                `json:"pending_events"`
	Generation    uint64             `json:"generation"`
	Compaction    CompactionSnapshot `json:"compaction"`
}

// CompactionSnapshot is the background-compaction section of /metrics.
type CompactionSnapshot struct {
	Count        uint64  `json:"count"`
	Failures     uint64  `json:"failures"`
	EventsFolded uint64  `json:"events_folded"`
	Running      bool    `json:"running"`
	LastMs       float64 `json:"last_ms,omitempty"`
	LastFolded   int     `json:"last_folded,omitempty"`
	LastError    string  `json:"last_error,omitempty"`
	LastAt       string  `json:"last_at,omitempty"`
}

// ReloadRequest is the POST /v1/reload body; an empty body (or empty
// path) reloads from Config.SnapshotPath.
type ReloadRequest struct {
	// Path is the snapshot file to load.
	Path string `json:"path,omitempty"`
}

// ReloadResponse reports the post-reload serving state, including how
// many journaled live events were replayed onto the fresh model.
type ReloadResponse struct {
	Generation uint64         `json:"generation"`
	ModelSteps int64          `json:"model_steps"`
	Replayed   int            `json:"replayed"`
	Reload     ReloadSnapshot `json:"reload"`
}

// ReloadSnapshot is the reload section of /metrics: how many swaps
// succeeded and failed, when the last one landed, and the last error.
type ReloadSnapshot struct {
	Count       uint64 `json:"count"`
	Failures    uint64 `json:"failures"`
	LastSuccess string `json:"last_success,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	LastErrorAt string `json:"last_error_at,omitempty"`
}

// ServerMetrics is the full /metrics payload.
type ServerMetrics struct {
	MetricsSnapshot
	Generation    uint64             `json:"generation"`
	LiveEvents    int                `json:"live_events"`
	PendingEvents int                `json:"pending_events"`
	ModelSteps    int64              `json:"model_steps"`
	IngestSources map[string]uint64  `json:"ingest_sources,omitempty"`
	Compaction    CompactionSnapshot `json:"compaction"`
	Reload        ReloadSnapshot     `json:"reload"`
	Cache         CacheSnapshot      `json:"cache"`
}

// CacheSnapshot is the cache section of /metrics.
type CacheSnapshot struct {
	Enabled  bool    `json:"enabled"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
	Entries  int     `json:"entries"`
	Capacity int     `json:"capacity"`
}

// ---- handlers ----

// handleEvents is GET /v1/events: the user's top n events, or with
// from/until/within the exact top n of the allowed subset.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	c, ok := s.parseConstraint(w, vals)
	if !ok {
		return
	}
	s.serveCached(w, r, s.newQuery(epEvents, vals, c, false), (*Server).queryEvents)
}

func (s *Server) queryEvents(rec *ebsn.Recommender, q *getQuery, sp *obs.Span) (any, error) {
	sp.Stage("query")
	// A zero constraint is TopEvents exactly.
	recs, err := rec.TopEventsConstrained(int32(q.user), q.n, q.c)
	if err != nil {
		return nil, err
	}
	sp.Stage("encode")
	return encodeEvents(rec.Dataset(), int32(q.user), q.n, recs), nil
}

// handlePartners is GET /v1/partners. Constrained requests bypass the
// coalescer unconditionally: folding requests with different predicates
// into one dispatch would either answer some of them against the wrong
// filter or force the batch to the union filter and post-filter — both
// break the exactness contract, so each runs its own traversal with the
// predicate pushed into the TA threshold walk (DESIGN.md §3.10).
func (s *Server) handlePartners(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	c, ok := s.parseConstraint(w, vals)
	if !ok {
		return
	}
	q := s.newQuery(epPartners, vals, c, false)
	// Micro-batching admission: cache misses park in the coalescer and
	// share one engine traversal per window.
	q.coalesce = s.coalesce != nil && c.IsZero()
	s.serveCached(w, r, q, (*Server).queryPartners)
}

func (s *Server) queryPartners(rec *ebsn.Recommender, q *getQuery, sp *obs.Span) (any, error) {
	sp.Stage("ta_search")
	if !q.c.IsZero() {
		pairs, stats, err := rec.TopEventPartnersConstrainedStats(int32(q.user), q.n, q.c)
		return s.pairsAnswer(rec, q, sp, pairs, stats, nil, err)
	}
	// The scatter-gather stats carry the per-shard decomposition to
	// spans and /metrics.
	pairs, es, err := rec.TopEventPartnersShardedStats(int32(q.user), q.n)
	return s.pairsAnswer(rec, q, sp, pairs, es.Agg, &es, err)
}

func (s *Server) handlePartnersLive(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, s.newQuery(epPartnersLive, r.URL.Query(), ebsn.Constraint{}, false), (*Server).queryPartnersLive)
}

func (s *Server) queryPartnersLive(rec *ebsn.Recommender, q *getQuery, sp *obs.Span) (any, error) {
	sp.Stage("ta_search")
	pairs, stats, err := rec.TopEventPartnersLiveStats(int32(q.user), q.n)
	return s.pairsAnswer(rec, q, sp, pairs, stats, nil, err)
}

// pairsAnswer records a finished joint search on the metrics panel and
// the span and renders its pairs.
func (s *Server) pairsAnswer(rec *ebsn.Recommender, q *getQuery, sp *obs.Span, pairs []ebsn.PairRecommendation,
	stats ebsn.SearchStats, estats *ebsn.EngineStats, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	s.metrics.RecordTA(stats)
	sp.SetAttr("ta_sorted", int64(stats.SortedAccesses))
	sp.SetAttr("ta_random", int64(stats.RandomAccesses))
	sp.SetAttr("ta_candidates", int64(stats.Candidates))
	sp.SetAttr("prune_k", s.pruneK.Load())
	if estats != nil {
		// Scatter-gather decomposition: one explicit-duration stage per
		// shard (they ran concurrently, so wall-clock stage boundaries
		// cannot measure them) plus the fan-out attrs. Spans cap at
		// eight stages; shard stages beyond the cap are dropped and
		// counted in the span's truncated field.
		s.metrics.RecordEngine(*estats)
		sp.SetAttr("shards", int64(len(estats.Shards)))
		sp.SetAttr("critical_path_us", int64(estats.CriticalPath/time.Microsecond))
		for _, ss := range estats.Shards {
			sp.StageDur("shard"+strconv.Itoa(ss.Shard), ss.Wall)
		}
	}
	sp.Stage("encode")
	return encodePairs(rec.Dataset(), int32(q.user), q.n, pairs), nil
}

func parseID(vals url.Values, key string, limit int) (int32, error) {
	raw := vals.Get(key)
	v, err := strconv.Atoi(raw)
	if raw == "" || err != nil || v < 0 || v >= limit {
		return 0, fmt.Errorf("invalid or missing %s parameter (0 ≤ %s < %d)", key, key, limit)
	}
	return int32(v), nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec := s.rec
	d := rec.Dataset()
	vals := r.URL.Query()
	user, err := parseID(vals, "user", d.NumUsers)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	partner, err := parseID(vals, "partner", d.NumUsers)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	event, err := parseID(vals, "event", d.NumEvents())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	b, err := rec.Explain(user, partner, event)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, &ExplainResponse{
		User: user, Partner: partner, Event: event,
		UserEvent: b.UserEvent, PartnerEvent: b.PartnerEvent,
		Social: b.Social, Total: b.Total,
		Friend: d.AreFriends(user, partner),
	})
}

// maxIngestBatch bounds one POST /v1/ingest; larger feeds should chunk.
const maxIngestBatch = 4096

// normalize resolves one ingest payload into fold-in inputs: explicit
// words win; otherwise name, description and keywords are tokenized the
// same way the training corpus was.
func (ev *IngestEvent) normalize() (words []string, start time.Time, err error) {
	words = ev.Words
	if len(words) == 0 {
		words = append(words, text.Tokenize(ev.Name)...)
		words = append(words, text.Tokenize(ev.Description)...)
		for _, kw := range ev.Keywords {
			words = append(words, text.Tokenize(kw)...)
		}
	}
	if len(words) == 0 {
		return nil, time.Time{}, errors.New("words must be non-empty (set words, or name/description/keywords)")
	}
	start = ev.Start
	if start.IsZero() {
		start = ev.StartDate
	}
	if start.IsZero() {
		return nil, time.Time{}, errors.New("start must be a valid RFC 3339 time (set start or startDate)")
	}
	return words, start, nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad ingest body: "+err.Error())
		return
	}
	events := req.Events
	switch {
	case len(events) == 0:
		// Original single-event shape; same validation errors as before.
		events = []IngestEvent{{Words: req.Words, Venue: req.Venue, Start: req.Start}}
	case len(req.Words) > 0 || !req.Start.IsZero():
		writeError(w, http.StatusBadRequest, "ingest: use either the single-event fields or events[], not both")
		return
	case len(events) > maxIngestBatch:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("ingest: batch of %d exceeds the %d-event limit; split the feed", len(events), maxIngestBatch))
		return
	}
	source := req.Source
	if source == "" {
		source = "default"
	}
	// Resolve and validate every event before ingesting any: a batch
	// either lands whole or is rejected whole, so partial feeds cannot
	// leave half-applied state behind a 4xx.
	batch := make([]ingestRecord, len(events))
	for i := range events {
		words, start, err := events[i].normalize()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("ingest: event %d: %v", i, err))
			return
		}
		batch[i] = ingestRecord{words: words, venue: events[i].Venue, start: start, source: source}
	}

	s.mu.Lock()
	rec := s.rec
	nv := len(rec.Dataset().Venues)
	for i := range batch {
		if int(batch[i].venue) < 0 || int(batch[i].venue) >= nv {
			s.mu.Unlock()
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("ingest: event %d: venue %d out of range [0,%d)", i, batch[i].venue, nv))
			return
		}
	}
	ids, ingestErr := rec.IngestColdEvents(coldEvents(batch))
	s.appendJournal(batch[:len(ids)]...)
	live := rec.LiveEventCount()
	pending := rec.PendingLiveEvents()
	s.mu.Unlock()

	var gen uint64
	var total uint64
	if len(ids) > 0 {
		gen = s.gen.Add(1)
		total = s.metrics.RecordIngest(source, len(ids))
		if s.cfg.AutoCompactEvents > 0 && pending >= s.cfg.AutoCompactEvents {
			s.startCompaction()
		}
	}
	if ingestErr != nil {
		// Validation passed, so this is an internal fold-in failure; any
		// earlier events of the batch already landed and stay.
		writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("ingest: event %d: %v (%d earlier events in this batch were ingested)", len(ids), ingestErr, len(ids)))
		return
	}
	writeJSON(w, http.StatusOK, &IngestResponse{
		ID:            ids[0],
		IDs:           ids,
		Ingested:      len(ids),
		Source:        source,
		SourceTotal:   total,
		LiveEvents:    live,
		PendingEvents: pending,
		Generation:    gen,
	})
}

// startCompaction kicks the background delta fold unless one is already
// in flight or there is nothing pending. It returns the done channel of
// the run that will next complete (nil when there is none) and whether
// this call started it.
func (s *Server) startCompaction() (<-chan struct{}, bool) {
	s.compact.mu.Lock()
	if s.compact.running {
		done := s.compact.done
		s.compact.mu.Unlock()
		return done, false
	}
	s.mu.RLock()
	pending := s.rec.PendingLiveEvents()
	s.mu.RUnlock()
	if pending == 0 {
		s.compact.mu.Unlock()
		return nil, false
	}
	done := make(chan struct{})
	s.compact.running = true
	s.compact.done = done
	s.compact.mu.Unlock()
	s.metrics.CompactionStarted()
	go s.runCompaction(done)
	return done, true
}

// runCompaction is the background fold: capture the delta prefix under
// the write lock (microseconds), build the merged index entirely
// outside any lock while queries keep flowing, then swap it in under
// the write lock again. A reload that swapped the recommender mid-fold
// supersedes the result, which is discarded.
func (s *Server) runCompaction(done chan struct{}) {
	start := time.Now()
	var folded int
	var err error

	s.mu.Lock()
	rec := s.rec
	c := rec.BeginCompaction()
	s.mu.Unlock()
	if c != nil {
		folded = c.Events()
		if err = c.Run(); err == nil {
			s.mu.Lock()
			if s.rec == rec {
				err = rec.InstallCompaction(c)
			} else {
				err = errors.New("compaction superseded: model reloaded while the fold ran")
			}
			s.mu.Unlock()
		}
	}
	d := time.Since(start)
	if err == nil && folded > 0 {
		s.gen.Add(1) // the live overlay shrank; orphan cached live responses
	}
	s.metrics.CompactionDone(d, folded, err)
	if s.cfg.Logger != nil {
		if err != nil {
			s.cfg.Logger.Printf("background compaction failed after %s: %v", d.Round(time.Microsecond), err)
		} else {
			s.cfg.Logger.Printf("background compaction folded %d live events in %s (generation=%d)",
				folded, d.Round(time.Microsecond), s.gen.Load())
		}
	}
	s.compact.mu.Lock()
	s.compact.count++
	s.compact.lastDur = d
	s.compact.lastAt = time.Now()
	if err != nil {
		s.compact.failures++
		s.compact.lastErr = err.Error()
	} else {
		s.compact.folded += uint64(folded)
		s.compact.lastFolded = folded
		s.compact.lastErr = ""
	}
	s.compact.running = false
	s.compact.done = nil
	s.compact.mu.Unlock()
	close(done)
}

func (s *Server) compactionSnapshot() CompactionSnapshot {
	s.compact.mu.Lock()
	defer s.compact.mu.Unlock()
	cs := CompactionSnapshot{
		Count:        s.compact.count,
		Failures:     s.compact.failures,
		EventsFolded: s.compact.folded,
		Running:      s.compact.running,
		LastFolded:   s.compact.lastFolded,
		LastError:    s.compact.lastErr,
	}
	if s.compact.lastDur > 0 {
		cs.LastMs = float64(s.compact.lastDur) / float64(time.Millisecond)
	}
	if !s.compact.lastAt.IsZero() {
		cs.LastAt = s.compact.lastAt.Format(time.RFC3339)
	}
	return cs
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	wait := false
	if v := r.URL.Query().Get("wait"); v != "" && v != "0" && v != "false" {
		wait = true
	}
	done, started := s.startCompaction()
	if wait && done != nil {
		select {
		case <-done:
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable,
				"compact: request canceled while waiting; the background fold continues")
			return
		}
	}
	s.mu.RLock()
	live := s.rec.LiveEventCount()
	pending := s.rec.PendingLiveEvents()
	s.mu.RUnlock()
	snap := s.compactionSnapshot()
	writeJSON(w, http.StatusOK, &CompactResponse{
		Started:       started,
		Running:       snap.Running,
		LiveEvents:    live,
		PendingEvents: pending,
		Generation:    s.gen.Load(),
		Compaction:    snap,
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad reload body: "+err.Error())
		return
	}
	replayed, err := s.reload2(req.Path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.mu.RLock()
	steps := s.rec.Model().Steps()
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, &ReloadResponse{
		Generation: s.gen.Load(),
		ModelSteps: steps,
		Replayed:   replayed,
		Reload:     s.reloadSnapshot(),
	})
}

// reloadSnapshot renders the reload counters for /metrics and the
// reload response.
func (s *Server) reloadSnapshot() ReloadSnapshot {
	s.reload.mu.Lock()
	defer s.reload.mu.Unlock()
	rs := ReloadSnapshot{
		Count:     s.reload.count,
		Failures:  s.reload.failures,
		LastError: s.reload.lastErr,
	}
	if !s.reload.lastOK.IsZero() {
		rs.LastSuccess = s.reload.lastOK.Format(time.RFC3339)
	}
	if !s.reload.lastErrAt.IsZero() {
		rs.LastErrorAt = s.reload.lastErrAt.Format(time.RFC3339)
	}
	return rs
}

// handleMetrics serves Prometheus text exposition by default; the
// pre-Prometheus JSON panel survives behind ?format=json for human
// curls and the tests that assert on structured values.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") != "json" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.WriteExposition(w)
		return
	}
	s.mu.RLock()
	live := s.rec.LiveEventCount()
	pending := s.rec.PendingLiveEvents()
	steps := s.rec.Model().Steps()
	s.mu.RUnlock()
	m := ServerMetrics{
		MetricsSnapshot: s.metrics.Snapshot(),
		Generation:      s.gen.Load(),
		LiveEvents:      live,
		PendingEvents:   pending,
		ModelSteps:      steps,
		IngestSources:   s.metrics.IngestSources(),
		Compaction:      s.compactionSnapshot(),
		Reload:          s.reloadSnapshot(),
	}
	if s.cache != nil {
		hits, misses := s.cache.Stats()
		m.Cache = CacheSnapshot{
			Enabled:  true,
			Hits:     hits,
			Misses:   misses,
			Entries:  s.cache.Len(),
			Capacity: s.cache.Capacity(),
		}
		if total := hits + misses; total > 0 {
			m.Cache.HitRate = float64(hits) / float64(total)
		}
	}
	writeJSON(w, http.StatusOK, m)
}

// SlowlogResponse is the GET /v1/debug/slowlog payload: the newest-first
// contents of the slow-query ring plus the tracer's current settings, so
// a reader can tell "no slow queries" from "tracing is off".
type SlowlogResponse struct {
	Enabled     bool            `json:"enabled"`
	ThresholdMs float64         `json:"threshold_ms"`
	Spans       uint64          `json:"spans"`
	Captured    uint64          `json:"captured"`
	Entries     []obs.SlowEntry `json:"entries"`
}

func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	entries := s.tracer.SlowLog().Snapshot()
	if entries == nil {
		entries = []obs.SlowEntry{} // render [] rather than null
	}
	writeJSON(w, http.StatusOK, &SlowlogResponse{
		Enabled:     s.tracer.Enabled(),
		ThresholdMs: float64(s.tracer.SlowThreshold()) / float64(time.Millisecond),
		Spans:       s.tracer.Spans(),
		Captured:    s.tracer.SlowLog().Total(),
		Entries:     entries,
	})
}

// ---- JSON helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeBody answers 200 with an already encoded JSON body.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write is the client's disconnect
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
