package engine

import (
	"fmt"
	"sync"
	"time"

	"ebsn/internal/ta"
)

// Config parameterizes Build.
type Config struct {
	// Shards is the partner-range shard count; values < 1 mean 1 and the
	// count is capped at the partner count.
	Shards int
	// TopKEvents is the per-partner candidate pruning passed to every
	// shard's ta.BuildCandidates (0 keeps the full cross product).
	TopKEvents int
	// Workers bounds the build parallelism inside each shard's
	// candidate-set and index construction (0 = serial build,
	// GOMAXPROCS index build — the ta defaults).
	Workers int
}

// Engine is the scatter-gather query front: it owns N partner-range
// shards and answers top-n queries by fanning a self-contained Request
// out to each shard concurrently and merging the per-shard answers in
// canonical order. Queries are safe for concurrent use; building and
// EnableQuantized are not.
type Engine struct {
	k         int
	nPartners int
	pairs     int
	shards    []Shard
	quantized bool
	// affSet computes the shared per-event affinity prepass. It belongs
	// to shard 0, whose event rows are bit-identical copies of every
	// other shard's (events are replicated across shards).
	affSet *ta.CandidateSet
	pool   sync.Pool // *fanoutScratch
	// art is the open artifact backing a mapped engine (nil for built
	// ones); it pins the mapping for the engine's lifetime. See
	// OpenArtifact in artifact.go.
	art *ta.Artifact
}

// fanoutScratch owns one query's fan-out state so steady-state queries
// reuse buffers instead of reallocating them. The shard closures are
// built once per scratch and read their per-query parameters from the
// scratch fields, so the fan-out itself allocates nothing.
type fanoutScratch struct {
	aff    []float32
	resp   []Response
	errs   []error
	walls  []time.Duration
	dsts   [][]ta.Result
	heads  []int
	lists  [][]ta.Result
	merged []ta.Result
	stats  []ShardStats
	psc    ta.Scratch // quantized-prepass scratch

	// Pre-built zero-arg shard closures (single-query and batch) and
	// the parameters they read. wg coordinates each fan-out.
	fns  []func()
	bfns []func()
	wg   sync.WaitGroup

	userVec []float32
	n       int
	exclude int32
	pred    ta.EventPredicate

	// Batch fan-out state.
	absc   *ta.BatchScratch
	busers [][]float32
	bexcl  []int32
	bresp  []BatchResponse
	bdsts  [][][]ta.Result
	bstats [][]ta.SearchStats
}

// ensureFns (re)builds the per-shard closures when the shard count
// changes — once per scratch lifetime in practice, since a scratch
// never leaves its engine's pool.
func (fs *fanoutScratch) ensureFns(e *Engine, ns int) {
	if len(fs.fns) == ns {
		return
	}
	fs.fns = make([]func(), ns)
	fs.bfns = make([]func(), ns)
	for i := 0; i < ns; i++ {
		i := i
		fs.fns[i] = func() {
			defer fs.wg.Done()
			s0 := time.Now()
			req := Request{
				UserVec:        fs.userVec,
				N:              fs.n,
				ExcludePartner: fs.exclude,
				EventAff:       fs.aff,
				Quantized:      e.quantized,
				Pred:           fs.pred,
				Dst:            fs.dsts[i],
			}
			fs.resp[i], fs.errs[i] = e.shards[i].Search(req)
			fs.dsts[i] = fs.resp[i].Results // keep grown buffers across queries
			fs.walls[i] = time.Since(s0)
		}
		fs.bfns[i] = func() {
			defer fs.wg.Done()
			s0 := time.Now()
			req := BatchRequest{
				Users:     fs.busers,
				N:         fs.n,
				Exclude:   fs.bexcl,
				EventAff:  fs.aff,
				Quantized: e.quantized,
				Dst:       fs.bdsts[i],
				DstStats:  fs.bstats[i],
			}
			fs.bresp[i], fs.errs[i] = e.shards[i].SearchBatch(req)
			fs.bdsts[i] = fs.bresp[i].Results
			fs.bstats[i] = fs.bresp[i].Stats
			fs.walls[i] = time.Since(s0)
		}
	}
}

// Build partitions partners into cfg.Shards contiguous ranges and
// constructs one self-contained shard per range: the shard's candidate
// set is built by ta.BuildCandidates over the full event list and its
// own partner slice, so per-partner pruning, cross terms and index
// bounds are computed exactly as the monolithic build computes them —
// the per-partner passes are independent, which is what makes shard
// answers bit-identical to the monolithic index restricted to the
// range. Event rows are replicated per shard (each shard packs its own
// copy); partner row headers are copied so shards never alias each
// other's packed storage.
func Build(events, partners [][]float32, cfg Config) (*Engine, error) {
	if len(events) == 0 || len(partners) == 0 {
		return nil, fmt.Errorf("engine: empty event or partner set")
	}
	ns := cfg.Shards
	if ns < 1 {
		ns = 1
	}
	if ns > len(partners) {
		ns = len(partners)
	}
	e := newEngine(len(events[0]), len(partners))
	for i := 0; i < ns; i++ {
		lo := i * len(partners) / ns
		hi := (i + 1) * len(partners) / ns
		// Fresh slice headers: ta.BuildCandidates re-aliases rows into
		// its packed storage, and that mutation must stay shard-local.
		ev := make([][]float32, len(events))
		copy(ev, events)
		ps := make([][]float32, hi-lo)
		copy(ps, partners[lo:hi])
		set, err := ta.BuildCandidates(ev, ps, ta.BuildConfig{TopKEvents: cfg.TopKEvents, Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d build: %w", i, err)
		}
		idx := ta.NewFastIndexWorkers(set, cfg.Workers)
		e.addShard(&localShard{set: set, idx: idx, lo: int32(lo), hi: int32(hi)})
	}
	return e, nil
}

// newEngine returns an engine with no shards yet; Build, Fold and
// OpenArtifact fill it in partner-range order through addShard.
func newEngine(k, nPartners int) *Engine {
	e := &Engine{k: k, nPartners: nPartners}
	e.pool.New = func() any { return &fanoutScratch{} }
	return e
}

// addShard appends the next shard; the first one's set serves the
// shared event-affinity prepass.
func (e *Engine) addShard(sh *localShard) {
	if len(e.shards) == 0 {
		e.affSet = sh.set
	}
	e.pairs += sh.Pairs()
	e.shards = append(e.shards, sh)
}

// EnableQuantized packs every shard's int8 candidate mirrors and routes
// all subsequent queries — single and batched — through the quantized
// search path (approximate int8 affinity passes, exact re-rank; see
// ta.PackQuantized). Event rows are replicated bit-identically across
// shards, so the quantized prepass stays shard-invariant exactly like
// the exact one. Not safe concurrently with queries; call it right
// after Build, before serving.
func (e *Engine) EnableQuantized() error {
	for i, sh := range e.shards {
		ls, ok := sh.(*localShard)
		if !ok {
			return fmt.Errorf("engine: shard %d (%T) does not support quantization", i, sh)
		}
		ls.set.PackQuantized()
	}
	e.quantized = true
	return nil
}

// Quantized reports whether queries route through the int8 path.
func (e *Engine) Quantized() bool { return e.quantized }

// NewDelta creates the live-ingestion tier for this engine: a delta
// over every partner, pruned to topK pairs per arriving event. A
// one-shard engine shares its packed partner rows with the delta; with
// more shards no single set covers every partner, so the delta packs its
// own copy of the rows.
func (e *Engine) NewDelta(topK int) (*ta.Delta, error) {
	if len(e.shards) == 1 {
		return ta.NewDeltaForSet(e.affSet, topK), nil
	}
	rows := make([][]float32, 0, e.nPartners)
	for i, sh := range e.shards {
		ls, ok := sh.(*localShard)
		if !ok {
			return nil, fmt.Errorf("engine: shard %d (%T) has no local partner rows", i, sh)
		}
		rows = append(rows, ls.set.Partners...)
	}
	return ta.NewDelta(rows, topK)
}

// Fold builds a new engine covering this one's candidate space plus a
// delta view of ingested events, without mutating the original: every
// shard folds (ta.FoldDelta) the view's events — replicated, as Build
// replicates — and the view's pairs whose partner it owns, translated to
// the shard-local partner space. The original engine keeps answering
// queries while the fold runs — the copy-on-write compaction. The view's
// partners are global IDs. workers bounds each shard's index-build
// parallelism. The fold inherits this engine's query mode: a quantized
// engine folds into a quantized engine, its new shards re-packing their
// int8 mirrors over the extended event list.
func (e *Engine) Fold(v ta.DeltaView, workers int) (*Engine, error) {
	if len(v.Pairs) != len(v.Cross) {
		return nil, fmt.Errorf("engine: fold pair/cross length mismatch: %d vs %d", len(v.Pairs), len(v.Cross))
	}
	ne := newEngine(e.k, e.nPartners)
	ne.quantized = e.quantized
	for i, sh := range e.shards {
		ls, ok := sh.(*localShard)
		if !ok {
			return nil, fmt.Errorf("engine: shard %d (%T) does not support local folds", i, sh)
		}
		sv := ta.DeltaView{Events: v.Events}
		for j, p := range v.Pairs {
			if p.Partner >= ls.lo && p.Partner < ls.hi {
				sv.Pairs = append(sv.Pairs, ta.Candidate{Event: p.Event, Partner: p.Partner - ls.lo})
				sv.Cross = append(sv.Cross, v.Cross[j])
			}
		}
		set, idx := ta.FoldDelta(ls.set, sv, workers)
		if ne.quantized {
			set.PackQuantized()
		}
		ne.addShard(&localShard{set: set, idx: idx, lo: ls.lo, hi: ls.hi})
	}
	return ne, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// NumEvents returns the number of events each shard replicates — the
// event index space of Search results.
func (e *Engine) NumEvents() int { return len(e.affSet.Events) }

// Candidates returns the total candidate pairs across all shards.
func (e *Engine) Candidates() int { return e.pairs }

// K returns the embedding dimension queries must match.
func (e *Engine) K() int { return e.k }

// Partners returns the global partner count.
func (e *Engine) Partners() int { return e.nPartners }

// Index returns shard 0's FastIndex when the engine has one shard — the
// index every query of that engine walks; nil otherwise.
func (e *Engine) Index() *ta.FastIndex {
	if len(e.shards) == 1 {
		if ls, ok := e.shards[0].(*localShard); ok {
			return ls.idx
		}
	}
	return nil
}

// ShardStats is one shard's share of a query.
type ShardStats struct {
	// Shard is the shard index, matching engine build order.
	Shard int
	// Stats is the shard's TA work (in-index elapsed included).
	Stats ta.SearchStats
	// Wall is the wall-clock duration of the shard call as observed by
	// the fan-out, scheduling included.
	Wall time.Duration
}

// Stats decomposes one scatter-gather query.
type Stats struct {
	// Agg sums the per-shard work: access counts and candidates add up
	// (each pair lives on exactly one shard, so Agg.Candidates equals
	// the monolithic candidate count), and Elapsed totals the in-index
	// time across shards plus the prepass and merge — the CPU cost of
	// the query, not its latency.
	Agg ta.SearchStats
	// Shards is the per-shard breakdown, in shard order.
	Shards []ShardStats
	// Prepass is the shared event-affinity pass duration.
	Prepass time.Duration
	// Merge is the canonical-order merge duration.
	Merge time.Duration
	// Wall is the end-to-end Search duration on this machine.
	Wall time.Duration
	// CriticalPath is Prepass + the slowest shard's Wall + Merge: the
	// latency floor with one core per shard. On a machine with fewer
	// cores than shards, Wall exceeds CriticalPath; the gap is the
	// parallelism the hardware did not supply.
	CriticalPath time.Duration
}

// Search answers the exact top-n for userVec with one partner excluded
// (< 0 excludes no one), scattering the query across all shards and
// gathering the canonical merge. The returned slice and Stats.Shards
// are freshly allocated and owned by the caller; latency-critical
// callers use SearchInto to reuse both.
func (e *Engine) Search(userVec []float32, n int, exclude int32) ([]ta.Result, Stats, error) {
	return e.SearchPred(userVec, n, exclude, nil)
}

// SearchPred is Search restricted to predicate-allowed events: the
// predicate is shipped to every shard (events are replicated, so it is
// shard-invariant) and pushed into each shard's threshold walk. Each
// shard's constrained answer is exact, so the canonical merge is exact
// too. A nil predicate is bit-identical to Search.
func (e *Engine) SearchPred(userVec []float32, n int, exclude int32, pred ta.EventPredicate) ([]ta.Result, Stats, error) {
	out, stats, err := e.SearchIntoPred(userVec, n, exclude, pred, nil, nil)
	if err != nil {
		return nil, stats, err
	}
	owned := make([]ShardStats, len(stats.Shards))
	copy(owned, stats.Shards)
	stats.Shards = owned
	return out, stats, nil
}

// SearchInto is Search with caller-managed storage: results are
// appended to dst[:0] and Stats.Shards reuses shardStats when its
// capacity suffices (both are grown — and thus allocated — only when
// too small). With warmed buffers a steady-state sharded query
// allocates nothing.
func (e *Engine) SearchInto(userVec []float32, n int, exclude int32, dst []ta.Result, shardStats []ShardStats) ([]ta.Result, Stats, error) {
	return e.SearchIntoPred(userVec, n, exclude, nil, dst, shardStats)
}

// SearchIntoPred is SearchPred with caller-managed storage, exactly as
// SearchInto manages it.
func (e *Engine) SearchIntoPred(userVec []float32, n int, exclude int32, pred ta.EventPredicate, dst []ta.Result, shardStats []ShardStats) ([]ta.Result, Stats, error) {
	start := time.Now()
	var stats Stats
	if n <= 0 {
		return nil, stats, fmt.Errorf("engine: n must be positive, got %d", n)
	}
	if len(userVec) != e.k {
		return nil, stats, fmt.Errorf("engine: user vector length %d, want %d", len(userVec), e.k)
	}
	if pred != nil && len(pred) != len(e.affSet.Events) {
		return nil, stats, fmt.Errorf("engine: predicate has %d entries, want %d events", len(pred), len(e.affSet.Events))
	}
	fs := e.pool.Get().(*fanoutScratch)
	defer e.pool.Put(fs)

	// Shared prepass: the per-event affinities are shard-invariant
	// (every shard replicates the event rows), so one pass serves all
	// shards. The quantized pass is shard-invariant too — the int8
	// event mirrors are derived from replicated rows.
	t0 := time.Now()
	fs.aff = e.affSet.EventAffinities(userVec, fs.aff, e.quantized, &fs.psc)
	stats.Prepass = time.Since(t0)

	ns := len(e.shards)
	fs.resp = resize(fs.resp, ns)
	fs.errs = resize(fs.errs, ns)
	fs.walls = resize(fs.walls, ns)
	fs.dsts = resize(fs.dsts, ns)
	fs.ensureFns(e, ns)
	fs.userVec, fs.n, fs.exclude, fs.pred = userVec, n, exclude, pred
	if ns == 1 {
		fs.wg.Add(1)
		fs.fns[0]()
	} else {
		fs.wg.Add(ns)
		for i := 0; i < ns; i++ {
			go fs.fns[i]()
		}
		fs.wg.Wait()
	}
	fs.userVec, fs.pred = nil, nil // do not retain caller data in the pool

	if cap(shardStats) < ns {
		shardStats = make([]ShardStats, ns)
	}
	stats.Shards = shardStats[:ns]
	var maxWall time.Duration
	for i := 0; i < ns; i++ {
		if err := fs.errs[i]; err != nil {
			stats.Shards = nil
			return nil, stats, fmt.Errorf("engine: shard %d: %w", i, err)
		}
		st := fs.resp[i].Stats
		stats.Shards[i] = ShardStats{Shard: i, Stats: st, Wall: fs.walls[i]}
		stats.Agg.SortedAccesses += st.SortedAccesses
		stats.Agg.RandomAccesses += st.RandomAccesses
		stats.Agg.Candidates += st.Candidates
		stats.Agg.Elapsed += st.Elapsed
		if fs.walls[i] > maxWall {
			maxWall = fs.walls[i]
		}
	}

	m0 := time.Now()
	fs.lists = resize(fs.lists, ns)
	fs.heads = resize(fs.heads, ns)
	for i := 0; i < ns; i++ {
		fs.lists[i] = fs.resp[i].Results
		fs.heads[i] = 0
	}
	out := mergeCanonical(fs.lists, fs.heads, n, dst[:0])
	stats.Merge = time.Since(m0)

	stats.Agg.Elapsed += stats.Prepass + stats.Merge
	stats.Wall = time.Since(start)
	stats.CriticalPath = stats.Prepass + maxWall + stats.Merge
	return out, stats, nil
}

// BatchStats decomposes one scatter-gather batch.
type BatchStats struct {
	// Agg sums the TA work across every user and shard, plus the shared
	// prepass and the merges — the CPU cost of the whole batch.
	Agg ta.SearchStats
	// Shards is the per-shard breakdown: Stats sums the shard's work
	// over the batch's users; Wall is the one batched shard call.
	Shards []ShardStats
	// Prepass is the shared event-affinity panel duration.
	Prepass time.Duration
	// Merge totals the per-user canonical merges.
	Merge time.Duration
	// Wall is the end-to-end SearchBatch duration.
	Wall time.Duration
	// CriticalPath is Prepass + the slowest shard's Wall + Merge.
	CriticalPath time.Duration
}

// SearchBatch answers the top-n for every user vector with one fan-out:
// the event-affinity panel is computed once (matrix-panel kernel over
// the shared event rows), each shard receives the whole batch as a
// single BatchRequest, and the per-shard answers are merged per user in
// canonical order. Results are indexed like users; exclude may be nil
// (no exclusions) or one global partner ID per user. The exact path is
// bit-identical to calling Search per user — same pairs, same score
// bits, same tie order — which is what lets the serving layer coalesce
// concurrent requests into batches transparently. The returned slices
// are freshly allocated (one backing array) and owned by the caller;
// Stats.Shards aliases nothing pooled.
func (e *Engine) SearchBatch(users [][]float32, n int, exclude []int32) ([][]ta.Result, BatchStats, error) {
	start := time.Now()
	var stats BatchStats
	if n <= 0 {
		return nil, stats, fmt.Errorf("engine: n must be positive, got %d", n)
	}
	if exclude != nil && len(exclude) != len(users) {
		return nil, stats, fmt.Errorf("engine: batch has %d users but %d excludes", len(users), len(exclude))
	}
	for j, u := range users {
		if len(u) != e.k {
			return nil, stats, fmt.Errorf("engine: batch user %d vector length %d, want %d", j, len(u), e.k)
		}
	}
	nb := len(users)
	if nb == 0 {
		return nil, stats, nil
	}
	fs := e.pool.Get().(*fanoutScratch)
	defer e.pool.Put(fs)
	if fs.absc == nil {
		fs.absc = ta.GetBatchScratch()
	}

	// Shared prepass: one panel over the replicated event rows serves
	// every shard.
	t0 := time.Now()
	fs.aff = append(fs.aff[:0], e.affSet.EventAffinityPanel(users, e.quantized, fs.absc)...)
	stats.Prepass = time.Since(t0)

	ns := len(e.shards)
	fs.bresp = resize(fs.bresp, ns)
	fs.errs = resize(fs.errs, ns)
	fs.walls = resize(fs.walls, ns)
	fs.bdsts = resize(fs.bdsts, ns)
	fs.bstats = resize(fs.bstats, ns)
	fs.ensureFns(e, ns)
	fs.busers, fs.n, fs.bexcl = users, n, exclude
	if ns == 1 {
		fs.wg.Add(1)
		fs.bfns[0]()
	} else {
		fs.wg.Add(ns)
		for i := 0; i < ns; i++ {
			go fs.bfns[i]()
		}
		fs.wg.Wait()
	}
	fs.busers, fs.bexcl = nil, nil // do not retain caller data in the pool

	stats.Shards = make([]ShardStats, ns)
	var maxWall time.Duration
	for i := 0; i < ns; i++ {
		if err := fs.errs[i]; err != nil {
			stats.Shards = nil
			return nil, stats, fmt.Errorf("engine: shard %d: %w", i, err)
		}
		ss := ShardStats{Shard: i, Wall: fs.walls[i]}
		for _, st := range fs.bresp[i].Stats {
			ss.Stats.SortedAccesses += st.SortedAccesses
			ss.Stats.RandomAccesses += st.RandomAccesses
			ss.Stats.Elapsed += st.Elapsed
			ss.Stats.Candidates = st.Candidates // per-query resident pairs, not summed
		}
		stats.Shards[i] = ss
		stats.Agg.SortedAccesses += ss.Stats.SortedAccesses
		stats.Agg.RandomAccesses += ss.Stats.RandomAccesses
		stats.Agg.Candidates += ss.Stats.Candidates
		stats.Agg.Elapsed += ss.Stats.Elapsed
		if fs.walls[i] > maxWall {
			maxWall = fs.walls[i]
		}
	}

	// Per-user canonical merges into one caller-owned backing array.
	m0 := time.Now()
	fs.lists = resize(fs.lists, ns)
	fs.heads = resize(fs.heads, ns)
	flat := make([]ta.Result, 0, nb*n)
	outs := make([][]ta.Result, nb)
	for j := 0; j < nb; j++ {
		for i := 0; i < ns; i++ {
			fs.lists[i] = fs.bresp[i].Results[j]
			fs.heads[i] = 0
		}
		lo := len(flat)
		flat = mergeCanonical(fs.lists, fs.heads, n, flat)
		outs[j] = flat[lo:len(flat):len(flat)]
	}
	stats.Merge = time.Since(m0)

	stats.Agg.Elapsed += stats.Prepass + stats.Merge
	stats.Wall = time.Since(start)
	stats.CriticalPath = stats.Prepass + maxWall + stats.Merge
	return outs, stats, nil
}

// mergeCanonical merges per-shard canonical top-n lists into the global
// top-n by repeatedly taking the best head (ta.Result.Outranks). Shard
// counts are small, so the O(n·shards) linear scan beats a heap.
func mergeCanonical(lists [][]ta.Result, heads []int, n int, dst []ta.Result) []ta.Result {
	want := len(dst) + n
	for len(dst) < want {
		best := -1
		for s := range lists {
			h := heads[s]
			if h >= len(lists[s]) {
				continue
			}
			if best < 0 || lists[s][h].Outranks(lists[best][heads[best]]) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		dst = append(dst, lists[best][heads[best]])
		heads[best]++
	}
	return dst
}

// resize grows s to length n, reusing capacity; contents are
// unspecified beyond indices the caller overwrites.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
