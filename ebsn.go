// Package ebsn is the public API of the joint event-partner
// recommendation library, a reproduction of "Joint Event-Partner
// Recommendation in Event-based Social Networks" (ICDE 2018).
//
// The package wires the full pipeline behind one type, Recommender:
// synthetic EBSN generation (or CSV import), the chronological cold-start
// split, the five relation graphs of the paper, GEM training (GEM-A,
// GEM-P or the PTE baseline), and the two online recommendation paths —
// direct event ranking and TA-accelerated joint event-partner ranking.
//
// Quick start:
//
//	rec, err := ebsn.New(ebsn.Config{City: ebsn.CityTiny, Seed: 1})
//	...
//	events := rec.TopEvents(user, 10)
//	pairs, _ := rec.TopEventPartners(user, 10)
package ebsn

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"ebsn/internal/core"
	"ebsn/internal/datagen"
	"ebsn/internal/ebsnet"
	"ebsn/internal/engine"
	"ebsn/internal/eval"
	"ebsn/internal/geo"
	"ebsn/internal/ta"
	"ebsn/internal/vecmath"
)

// Re-exported building blocks for callers that need to go deeper than the
// Recommender facade.
type (
	// Dataset is an event-based social network snapshot.
	Dataset = ebsnet.Dataset
	// Event is one social event.
	Event = ebsnet.Event
	// Split is the chronological train/validation/test partition.
	Split = ebsnet.Split
	// Graphs bundles the five relation graphs.
	Graphs = ebsnet.Graphs
	// Model is a trainable GEM instance.
	Model = core.Model
	// ModelConfig is the full GEM hyper-parameter set.
	ModelConfig = core.Config
	// ModelSnapshot is the serializable state of a trained model — what
	// SaveModel writes and what checkpoint/resume and live reload move
	// between processes.
	ModelSnapshot = core.Snapshot
	// GeneratorConfig parameterizes the synthetic city generator.
	GeneratorConfig = datagen.Config
	// SearchStats reports how much work one TA query did (sorted and
	// random accesses against the candidate count, plus wall-clock time
	// inside the index) — the per-query observability surface behind the
	// paper's pruning claims.
	SearchStats = ta.SearchStats
	// TrainStats is a live snapshot of training telemetry (steps,
	// per-graph edge draws, rank-rebuild latency); see Model.TrainStats.
	TrainStats = core.TrainStats
	// EngineStats decomposes one scatter-gather query or batch answered
	// by the sharded engine: aggregated TA work, the per-shard breakdown,
	// and the prepass/merge/critical-path timings.
	EngineStats = engine.Stats
	// EngineShardStats is one shard's share of a scatter-gather query.
	EngineShardStats = engine.ShardStats
)

// City selects a built-in synthetic dataset scale.
type City int

// Built-in scales. CityBeijing and CityShanghai mirror the paper's
// Table I shapes; CityTiny and CitySmall are for tests and quick runs.
const (
	CityTiny City = iota
	CitySmall
	CityBeijing
	CityShanghai
)

// String returns the flag-style lowercase name ("tiny", "beijing", ...)
// accepted back by ParseCity.
func (c City) String() string {
	switch c {
	case CityTiny:
		return "tiny"
	case CitySmall:
		return "small"
	case CityBeijing:
		return "beijing"
	case CityShanghai:
		return "shanghai"
	default:
		return fmt.Sprintf("City(%d)", int(c))
	}
}

// ParseCity converts a name ("tiny", "small", "beijing", "shanghai") to a
// City.
func ParseCity(s string) (City, error) {
	switch s {
	case "tiny":
		return CityTiny, nil
	case "small":
		return CitySmall, nil
	case "beijing":
		return CityBeijing, nil
	case "shanghai":
		return CityShanghai, nil
	default:
		return 0, fmt.Errorf("ebsn: unknown city %q", s)
	}
}

// GeneratorConfigFor returns the generator preset for a city.
func GeneratorConfigFor(city City, seed uint64) GeneratorConfig {
	switch city {
	case CitySmall:
		return datagen.SmallConfig(seed)
	case CityBeijing:
		return datagen.BeijingConfig(seed)
	case CityShanghai:
		return datagen.ShanghaiConfig(seed)
	default:
		return datagen.TinyConfig(seed)
	}
}

// Variant selects the trained model family.
type Variant int

// Model variants, in the paper's naming.
const (
	// GEMA is the full model with the adaptive adversarial noise sampler.
	GEMA Variant = iota
	// GEMP replaces the adaptive sampler with the degree-based one.
	GEMP
	// PTE is the baseline: unidirectional sampling, uniform graph choice.
	PTE
)

// String returns the paper's display name ("GEM-A", "GEM-P", "PTE");
// ParseVariant accepts these case-insensitively.
func (v Variant) String() string {
	switch v {
	case GEMA:
		return "GEM-A"
	case GEMP:
		return "GEM-P"
	case PTE:
		return "PTE"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant converts "gem-a", "gem-p" or "pte" to a Variant.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "gem-a", "gema", "GEM-A":
		return GEMA, nil
	case "gem-p", "gemp", "GEM-P":
		return GEMP, nil
	case "pte", "PTE":
		return PTE, nil
	default:
		return 0, fmt.Errorf("ebsn: unknown variant %q", s)
	}
}

func (v Variant) preset() core.Config {
	switch v {
	case GEMP:
		return core.GEMPConfig()
	case PTE:
		return core.PTEConfig()
	default:
		return core.GEMAConfig()
	}
}

// Config parameterizes the full pipeline.
type Config struct {
	// City selects the synthetic dataset scale (ignored when a Dataset is
	// supplied explicitly to Build).
	City City
	// Seed drives dataset generation, training and evaluation.
	Seed uint64
	// Variant selects the model family (default GEM-A).
	Variant Variant
	// K is the embedding dimension; 0 means the paper's 60.
	K int
	// TrainSteps is the SGD budget N; 0 picks a scale-appropriate default
	// (≈25 samples per relation edge).
	TrainSteps int64
	// Threads is the Hogwild worker count; 0 means 4.
	Threads int
	// MinEventsPerUser filters out sparse users as the paper does;
	// 0 means 5.
	MinEventsPerUser int
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.K == 0 {
		c.K = 60
	}
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.MinEventsPerUser == 0 {
		c.MinEventsPerUser = 5
	}
}

// Recommendation is one scored event for a target user.
type Recommendation struct {
	Event int32
	Score float32
}

// PairRecommendation is one scored event-partner pair.
type PairRecommendation struct {
	Event   int32
	Partner int32
	Score   float32
}

// Recommender is the assembled pipeline.
//
// Concurrency: query methods (TopEvents, TopEventsBatch,
// TopEventPartners, Explain, the evaluation methods) are safe to call
// from multiple goroutines once the structures they use exist: with a
// joint engine prepared, no query method writes the Recommender. Methods
// that build state lazily or mutate it — the PrepareJoint family, a joint
// query before any of them, FoldInEvent's first call, IngestColdEvent,
// CompactLiveEvents — must be serialized by the caller; a service
// typically calls PrepareJoint once at startup and funnels ingestion
// through one goroutine.
type Recommender struct {
	cfg     Config
	dataset *ebsnet.Dataset
	split   *ebsnet.Split
	graphs  *ebsnet.Graphs
	model   *core.Model

	// Joint-query state. taEngine is the only holder of a built index:
	// the scatter-gather engine over the frozen embeddings (one shard
	// unless PrepareJointSharded asked for more), built with taPruneK.
	taEngine *engine.Engine
	taPruneK int

	// FoldInEvent's snapshot and venue→region table, built on its first
	// call.
	fold *foldIn

	// Live-ingestion state (serving.go): the mutable delta tier absorbing
	// ingested events, and the engine it overlays once a compaction has
	// forked a private fold — until then taEngine itself, which is never
	// mutated.
	taDelta      *ta.Delta
	taLiveEngine *engine.Engine
	liveEvents   int
}

// New generates a synthetic city per cfg and runs the full pipeline.
func New(cfg Config) (*Recommender, error) {
	cfg.fill()
	d, err := datagen.Generate(GeneratorConfigFor(cfg.City, cfg.Seed))
	if err != nil {
		return nil, err
	}
	return Build(d, cfg)
}

// Build runs the pipeline on a caller-supplied dataset (e.g. one imported
// with LoadDatasetCSV). The dataset must be finalized.
func Build(d *ebsnet.Dataset, cfg Config) (*Recommender, error) {
	r, err := Assemble(d, cfg)
	if err != nil {
		return nil, err
	}
	r.model.TrainSteps(r.model.Cfg.TotalSteps)
	return r, nil
}

// Assemble runs the pipeline up to (but not including) training: the
// dataset is filtered and split, the five relation graphs are built, and
// the model is constructed with random initialization and its TotalSteps
// budget resolved (cfg.TrainSteps, or ≈25 samples per edge when zero).
// Callers drive training themselves via Model().TrainStepsCtx — the
// checkpoint/resume path of cmd/ebsn-train — or restore a saved
// ModelSnapshot with Model().RestoreSnapshot.
func Assemble(d *ebsnet.Dataset, cfg Config) (*Recommender, error) {
	cfg.fill()
	filtered, err := d.FilterMinEvents(cfg.MinEventsPerUser)
	if err != nil {
		return nil, err
	}
	if filtered.NumUsers == 0 {
		return nil, fmt.Errorf("ebsn: no users survive the %d-event filter", cfg.MinEventsPerUser)
	}
	split, err := ebsnet.ChronologicalSplit(filtered, ebsnet.DefaultSplitConfig())
	if err != nil {
		return nil, err
	}
	graphs, err := ebsnet.BuildGraphs(filtered, split, ebsnet.DefaultGraphsConfig())
	if err != nil {
		return nil, err
	}

	steps := cfg.TrainSteps
	if steps == 0 {
		total := 0
		for _, g := range graphs.All() {
			total += g.NumEdges()
		}
		steps = int64(total) * 25
	}
	mc := cfg.Variant.preset()
	mc.K = cfg.K
	mc.Seed = cfg.Seed
	mc.Threads = cfg.Threads
	mc.TotalSteps = steps
	model, err := core.NewModel(graphs, mc)
	if err != nil {
		return nil, err
	}
	return &Recommender{cfg: cfg, dataset: filtered, split: split, graphs: graphs, model: model}, nil
}

// Dataset returns the filtered dataset the recommender was built on.
func (r *Recommender) Dataset() *ebsnet.Dataset { return r.dataset }

// Split returns the chronological split.
func (r *Recommender) Split() *ebsnet.Split { return r.split }

// RelationGraphs returns the trained-on relation graphs.
func (r *Recommender) RelationGraphs() *ebsnet.Graphs { return r.graphs }

// Model returns the trained model.
func (r *Recommender) Model() *core.Model { return r.model }

// TopEvents ranks the cold (test) events for the user and returns the
// top n. These are exactly the events the paper's recommendation service
// would surface: future events with no attendance history.
func (r *Recommender) TopEvents(user int32, n int) ([]Recommendation, error) {
	if err := r.checkUserN(user, n); err != nil {
		return nil, err
	}
	return r.selectTopEvents(n, nil, func(_ int, x int32) float32 {
		return r.model.ScoreUserEvent(user, x)
	}), nil
}

// checkUserN validates the (user, n) pair every ranking query takes.
func (r *Recommender) checkUserN(user int32, n int) error {
	if int(user) < 0 || int(user) >= r.dataset.NumUsers {
		return fmt.Errorf("ebsn: user %d out of range [0,%d)", user, r.dataset.NumUsers)
	}
	if n <= 0 {
		return fmt.Errorf("ebsn: n must be positive")
	}
	return nil
}

// jointVectors extracts the cold-event and partner embedding rows the
// joint candidate space is built over.
func (r *Recommender) jointVectors() (events, partners [][]float32) {
	events = make([][]float32, len(r.split.TestEvents))
	for i, x := range r.split.TestEvents {
		events[i] = r.model.EventVec(x)
	}
	partners = make([][]float32, r.dataset.NumUsers)
	for u := range partners {
		partners[u] = r.model.UserVec(int32(u))
	}
	return events, partners
}

// PrepareJoint builds the transformed candidate space and TA index for
// joint event-partner recommendation, pruning to each partner's top
// pruneK test events (0 keeps the full space) — a one-shard
// PrepareJointSharded. It is called implicitly by TopEventPartners but
// exposed so services can pay the build cost at startup.
func (r *Recommender) PrepareJoint(pruneK int) error { return r.PrepareJointSharded(pruneK, 1) }

// PrepareJointSharded builds the scatter-gather engine over the joint
// candidate space with the given partner-range shard count (values < 1
// mean 1). The engine answers every joint query — plain, batched,
// constrained, and the base tier of live ones. Re-preparing replaces the
// engine wholesale: the new one answers exactly (EnableQuantizedQueries
// must be called again) and the live-ingestion tiers are dropped, so
// callers re-ingest (or compact before re-preparing).
func (r *Recommender) PrepareJointSharded(pruneK, shards int) error {
	events, partners := r.jointVectors()
	eng, err := engine.Build(events, partners, engine.Config{
		Shards:     shards,
		TopKEvents: pruneK,
		Workers:    r.cfg.Threads,
	})
	if err != nil {
		return err
	}
	r.installEngine(eng, pruneK)
	return nil
}

// installEngine makes eng the joint engine and drops the live tiers a
// previous engine carried.
func (r *Recommender) installEngine(eng *engine.Engine, pruneK int) {
	r.taEngine, r.taPruneK = eng, pruneK
	r.taDelta, r.taLiveEngine = nil, nil
}

// ensureEngine builds a one-shard engine with the default pruning — 5%
// of test events per partner, the point where Figure 7 shows the
// approximation ratio reaching ~1 — when none has been prepared. Like
// the Prepare calls it must be serialized by the caller; with an engine
// in place it writes nothing.
func (r *Recommender) ensureEngine() error {
	if r.taEngine != nil {
		return nil
	}
	return r.PrepareJoint(max(len(r.split.TestEvents)/20, 1))
}

// EngineShards reports the shard count of the prepared engine, 0 when
// none has been prepared yet.
func (r *Recommender) EngineShards() int {
	if r.taEngine == nil {
		return 0
	}
	return r.taEngine.Shards()
}

// TopEventPartners returns the top-n event-partner pairs for the user via
// the TA index over the transformed space. Event IDs in the result are
// dataset event IDs; partners are user IDs.
func (r *Recommender) TopEventPartners(user int32, n int) ([]PairRecommendation, error) {
	out, _, err := r.jointSearch(user, n, nil)
	return out, err
}

// TopEventPartnersStats is TopEventPartners plus the TA work counters for
// the query, aggregated over the engine's shards.
func (r *Recommender) TopEventPartnersStats(user int32, n int) ([]PairRecommendation, SearchStats, error) {
	out, es, err := r.jointSearch(user, n, nil)
	return out, es.Agg, err
}

// TopEventPartnersSharded is TopEventPartners under its older name: every
// joint query is answered by the engine, and results are bit-identical
// for every shard count (the engine's exactness property test pins
// this).
func (r *Recommender) TopEventPartnersSharded(user int32, n int) ([]PairRecommendation, error) {
	return r.TopEventPartners(user, n)
}

// TopEventPartnersShardedStats is TopEventPartners plus the
// scatter-gather decomposition: aggregated TA counters, the per-shard
// breakdown, and the prepass/merge/critical-path timings a serving
// layer renders as span stages and shard metrics.
func (r *Recommender) TopEventPartnersShardedStats(user int32, n int) ([]PairRecommendation, EngineStats, error) {
	return r.jointSearch(user, n, nil)
}

// jointSearch answers one joint query from the base engine (building the
// default one when none is prepared), restricted to pred-allowed events
// when pred is non-nil.
func (r *Recommender) jointSearch(user int32, n int, pred EventPredicate) ([]PairRecommendation, EngineStats, error) {
	if err := r.checkUserN(user, n); err != nil {
		return nil, EngineStats{}, err
	}
	if err := r.ensureEngine(); err != nil {
		return nil, EngineStats{}, err
	}
	res, stats, err := r.taEngine.SearchIntoPred(r.model.UserVec(user), n, user, pred, nil, nil)
	if err != nil {
		return nil, stats, err
	}
	return r.basePairs(res), stats, nil
}

// basePairs converts base-tier results — event indices into the test
// events — to dataset IDs.
func (r *Recommender) basePairs(res []ta.Result) []PairRecommendation {
	out := make([]PairRecommendation, len(res))
	for i, rr := range res {
		out[i] = PairRecommendation{Event: r.split.TestEvents[rr.Event], Partner: rr.Partner, Score: rr.Score}
	}
	return out
}

// LoadDatasetCSV imports a dataset directory written by SaveDatasetCSV.
func LoadDatasetCSV(dir string) (*Dataset, error) { return ebsnet.ImportCSV(dir) }

// SaveDatasetCSV exports the dataset as CSV files under dir.
func SaveDatasetCSV(d *Dataset, dir string) error { return ebsnet.ExportCSV(d, dir) }

// SaveModel writes the trained embeddings to path in the versioned,
// checksummed snapshot format. The write is atomic (temp file + fsync +
// rename): a crash mid-save leaves the previous file intact.
func (r *Recommender) SaveModel(path string) error {
	return r.model.Snapshot().SaveFile(path)
}

// LoadModelSnapshot reads a model snapshot written by SaveModel (or by a
// pre-versioning build; legacy bare-gob files still load). Corrupt or
// truncated files fail with a descriptive error.
func LoadModelSnapshot(path string) (*ModelSnapshot, error) {
	return core.LoadSnapshotFile(path)
}

// WithSnapshot returns a new Recommender that shares this one's dataset,
// split and relation graphs (all immutable after assembly) but serves
// the embeddings in snap — the zero-downtime reload path: build the
// replacement off the request path, PrepareJoint it, then swap. The
// snapshot must come from a model trained on the same dataset; matrix
// shape mismatches are rejected. Live-ingested events and lazily built
// TA state are not carried over.
func (r *Recommender) WithSnapshot(snap *ModelSnapshot) (*Recommender, error) {
	if snap == nil {
		return nil, fmt.Errorf("ebsn: nil snapshot")
	}
	model, err := core.NewModel(r.graphs, snap.Cfg)
	if err != nil {
		return nil, err
	}
	if err := model.RestoreSnapshot(snap); err != nil {
		return nil, err
	}
	cfg := r.cfg
	cfg.K = snap.Cfg.K
	return &Recommender{cfg: cfg, dataset: r.dataset, split: r.split, graphs: r.graphs, model: model}, nil
}

// GenerateDataset synthesizes a city dataset without building a pipeline.
func GenerateDataset(cfg GeneratorConfig) (*Dataset, error) { return datagen.Generate(cfg) }

// Open rebuilds a Recommender from a directory written by cmd/ebsn-train:
// dataset/ (CSV) plus model.gob. No training happens; the saved
// embeddings are restored into a model built over the same graphs. The
// snapshot's dimension overrides cfg.K.
func Open(dir string, cfg Config) (*Recommender, error) {
	cfg.fill()
	d, err := ebsnet.ImportCSV(filepath.Join(dir, "dataset"))
	if err != nil {
		return nil, err
	}
	snap, err := core.LoadSnapshotFile(filepath.Join(dir, "model.gob"))
	if err != nil {
		return nil, err
	}
	filtered, err := d.FilterMinEvents(cfg.MinEventsPerUser)
	if err != nil {
		return nil, err
	}
	split, err := ebsnet.ChronologicalSplit(filtered, ebsnet.DefaultSplitConfig())
	if err != nil {
		return nil, err
	}
	graphs, err := ebsnet.BuildGraphs(filtered, split, ebsnet.DefaultGraphsConfig())
	if err != nil {
		return nil, err
	}
	mc := snap.Cfg
	model, err := core.NewModel(graphs, mc)
	if err != nil {
		return nil, err
	}
	if err := model.RestoreSnapshot(snap); err != nil {
		return nil, err
	}
	cfg.K = mc.K
	return &Recommender{cfg: cfg, dataset: filtered, split: split, graphs: graphs, model: model}, nil
}

// EvalResult is an Accuracy@n evaluation outcome.
type EvalResult = eval.Result

// EvaluateColdStart runs the paper's cold-start event protocol (1000
// sampled negatives per held-out attendance) on the test split. maxCases
// caps the evaluated cases (0 = all).
func (r *Recommender) EvaluateColdStart(ns []int, maxCases int) (EvalResult, error) {
	cfg := eval.DefaultConfig()
	if len(ns) > 0 {
		cfg.Ns = ns
	}
	cfg.MaxCases = maxCases
	cfg.Seed = r.cfg.Seed ^ 0xeea1
	return eval.EventRecommendation(r.model, r.dataset, r.split, ebsnet.Test, cfg)
}

// EvaluatePartner runs the paper's joint event-partner protocol (500
// negative events + 500 negative partners per ground-truth triple).
func (r *Recommender) EvaluatePartner(ns []int, maxCases int) (EvalResult, error) {
	cfg := eval.DefaultConfig()
	if len(ns) > 0 {
		cfg.Ns = ns
	}
	cfg.MaxCases = maxCases
	cfg.Seed = r.cfg.Seed ^ 0xeea2
	triples := ebsnet.PartnerGroundTruth(r.dataset, r.split, ebsnet.Test)
	return eval.PartnerRecommendation(r.model, r.dataset, r.split, triples, ebsnet.Test, cfg)
}

// FoldInEvent synthesizes an embedding for a brand-new event that did not
// exist at training time, from its tokenized description, venue and start
// time — the live-service path for events arriving after the last
// retrain. The region is inherited from events at the same venue, or from
// the geographically nearest event when the venue is new.
func (r *Recommender) FoldInEvent(words []string, venue int32, start time.Time) ([]float32, error) {
	if int(venue) < 0 || int(venue) >= len(r.dataset.Venues) {
		return nil, fmt.Errorf("ebsn: venue %d out of range [0,%d)", venue, len(r.dataset.Venues))
	}
	if r.fold == nil {
		r.fold = r.newFoldIn()
	}
	return r.fold.snap.FoldIn(r.graphs.Vocab, core.ColdEvent{Words: words, Region: r.venueRegion(venue), Start: start})
}

// foldIn is FoldInEvent's state, built on its first call: the model is
// frozen after Build/Open, so one capture suffices.
type foldIn struct {
	snap *core.Snapshot
	// venueRegions maps a venue to the region of the first dataset event
	// held there, -1 for a venue no event uses.
	venueRegions []int32
}

func (r *Recommender) newFoldIn() *foldIn {
	f := &foldIn{snap: r.model.Snapshot(), venueRegions: make([]int32, len(r.dataset.Venues))}
	for v := range f.venueRegions {
		f.venueRegions[v] = -1
	}
	for x := len(r.dataset.Events) - 1; x >= 0; x-- {
		f.venueRegions[r.dataset.Events[x].Venue] = int32(r.graphs.EventRegion[x])
	}
	return f
}

// venueRegion returns the region a new event at venue inherits: the
// first dataset event's there, from the fold-in's venue→region table,
// or for a venue no event uses, the geographically nearest event's.
// r.fold must be built.
func (r *Recommender) venueRegion(venue int32) int32 {
	if region := r.fold.venueRegions[venue]; region >= 0 {
		return region
	}
	p := r.dataset.Venues[venue]
	best := -1
	bestKm := math.Inf(1)
	for x, e := range r.dataset.Events {
		if km := geo.EquirectKm(p, r.dataset.Venues[e.Venue]); km < bestKm {
			bestKm = km
			best = x
		}
	}
	return int32(r.graphs.EventRegion[best])
}

// ScoreColdEvent scores a folded-in event vector for a user.
func (r *Recommender) ScoreColdEvent(user int32, eventVec []float32) float32 {
	return vecmath.Dot(r.model.UserVec(user), eventVec)
}

// RankingMetrics is the full-ranking metric set (MRR, mean rank,
// Recall@n, NDCG@n).
type RankingMetrics = eval.RankingMetrics

// EvaluateFullRanking ranks every held-out attendance's true event
// against the whole cold-event pool — no negative sampling — and reports
// MRR, mean rank, Recall@n and NDCG@n. Slower than EvaluateColdStart but
// sampling-noise free.
func (r *Recommender) EvaluateFullRanking(ns []int, maxCases int) (RankingMetrics, error) {
	return eval.EventRecommendationFullRanking(r.model, r.dataset, r.split, ebsnet.Test, eval.FullRankingConfig{
		Ns:       ns,
		MaxCases: maxCases,
		Workers:  r.cfg.Threads,
	})
}

// TrainingObjective estimates the current value of the negative-sampling
// objective the trainer descends, overall and per relation graph — the
// number to watch on a training dashboard.
func (r *Recommender) TrainingObjective(samples int) (core.ObjectiveEstimate, error) {
	return r.model.EstimateObjective(samples, r.cfg.Seed^0x0b9e)
}

// DescribeDataset returns the distributional profile of the underlying
// dataset (activity, popularity and social-degree statistics).
func (r *Recommender) DescribeDataset() ebsnet.Description {
	return ebsnet.Describe(r.dataset)
}
