package engine

import (
	"fmt"
	"slices"
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
// shards and answers every query — single, constrained, batched or live
// — with one fan-out: a shared event-affinity panel, one TopNBatch call
// per shard over all of the query's lanes, and a canonical merge per
// lane. A single query is a batch of one. Queries are safe for concurrent use;
// building is not.
type Engine struct {
	k         int
	nPartners int
	pairs     int
	shards    []shard
	// affSet computes the shared event-affinity panel. It belongs to
	// shard 0, whose event rows are bit-identical copies of every other
	// shard's (events are replicated across shards).
	affSet *ta.CandidateSet
	pool   sync.Pool // *fanoutScratch
	// art is the open artifact backing a mapped engine (nil for built
	// ones); it pins the mapping for the engine's lifetime. See
	// OpenArtifact in artifact.go.
	art *ta.Artifact
}

// fanoutScratch owns one fan-out's state so steady-state queries reuse
// buffers instead of reallocating them. The per-shard closures are built
// with the scratch and read the query from its fields, so the fan-out
// itself allocates nothing.
type fanoutScratch struct {
	prepass ta.Scratch // the shared event-affinity panel
	runs    []shardRun
	fns     []func()
	wg      sync.WaitGroup
	lists   [][]ta.Result
	heads   []int

	// The query the closures read: q.Exclude stays nil, since each shard
	// translates the global excludes into its own IDs. Search copies the
	// caller's lane headers into users and excl, so the pool never keeps
	// a caller slice.
	q       ta.BatchQuery
	exclude []int32 // excl, or nil when no lane excludes anyone
	users   [][]float32
	excl    []int32
}

// newFanout builds a scratch with one closure per shard. The pool calls
// it on the first query, after Build, Fold or OpenArtifact has added
// every shard.
func (e *Engine) newFanout() *fanoutScratch {
	ns := len(e.shards)
	fs := &fanoutScratch{
		runs:  make([]shardRun, ns),
		fns:   make([]func(), ns),
		lists: make([][]ta.Result, ns),
		heads: make([]int, ns),
	}
	for i := range fs.fns {
		fs.fns[i] = func() {
			defer fs.wg.Done()
			e.shards[i].search(fs.q, fs.exclude, &fs.runs[i])
		}
	}
	return fs
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
		e.addShard(shard{set: set, idx: idx, lo: int32(lo), hi: int32(hi)})
	}
	return e, nil
}

// newEngine returns an engine with no shards yet; Build, Fold and
// OpenArtifact fill it in partner-range order through addShard.
func newEngine(k, nPartners int) *Engine {
	e := &Engine{k: k, nPartners: nPartners}
	e.pool.New = func() any { return e.newFanout() }
	return e
}

// addShard appends the next shard; the first one's set serves the
// shared event-affinity panel.
func (e *Engine) addShard(sh shard) {
	if len(e.shards) == 0 {
		e.affSet = sh.set
	}
	e.pairs += len(sh.set.Pairs)
	e.shards = append(e.shards, sh)
}

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
	for _, sh := range e.shards {
		rows = append(rows, sh.set.Partners...)
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
// parallelism.
func (e *Engine) Fold(v ta.DeltaView, workers int) (*Engine, error) {
	if len(v.Pairs) != len(v.Cross) {
		return nil, fmt.Errorf("engine: fold pair/cross length mismatch: %d vs %d", len(v.Pairs), len(v.Cross))
	}
	ne := newEngine(e.k, e.nPartners)
	for _, sh := range e.shards {
		sv := ta.DeltaView{Events: v.Events}
		for j, p := range v.Pairs {
			if p.Partner >= sh.lo && p.Partner < sh.hi {
				sv.Pairs = append(sv.Pairs, ta.Candidate{Event: p.Event, Partner: p.Partner - sh.lo})
				sv.Cross = append(sv.Cross, v.Cross[j])
			}
		}
		set, idx := ta.FoldDelta(sh.set, sv, workers)
		ne.addShard(shard{set: set, idx: idx, lo: sh.lo, hi: sh.hi})
	}
	return ne, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// NumEvents returns the number of events each shard replicates — the
// event index space of query results.
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
		return e.shards[0].idx
	}
	return nil
}

// ShardStats is one shard's share of a query.
type ShardStats struct {
	// Shard is the shard index, matching engine build order.
	Shard int
	// Stats is the shard's TA work summed over the query's lanes
	// (in-index elapsed included); Candidates is the shard's resident
	// pair count, not summed.
	Stats ta.SearchStats
	// Wall is the wall-clock duration of the shard call as observed by
	// the fan-out, scheduling included.
	Wall time.Duration
}

// Stats decomposes one scatter-gather query or batch.
type Stats struct {
	// Agg sums the per-shard work: access counts add up over shards and
	// lanes, Candidates over shards (each pair lives on exactly one
	// shard, so Agg.Candidates equals the monolithic candidate count),
	// and Elapsed totals the in-index time across shards plus the
	// prepass and merge — the CPU cost of the query, not its latency.
	Agg ta.SearchStats
	// Shards is the per-shard breakdown, in shard order.
	Shards []ShardStats
	// Prepass is the shared event-affinity panel duration.
	Prepass time.Duration
	// Merge totals the per-lane canonical-order merges.
	Merge time.Duration
	// Wall is the end-to-end duration on this machine.
	Wall time.Duration
	// CriticalPath is Prepass + the slowest shard's Wall + Merge: the
	// latency floor with one core per shard. On a machine with fewer
	// cores than shards, Wall exceeds CriticalPath; the gap is the
	// parallelism the hardware did not supply.
	CriticalPath time.Duration
}

// Search is the one query entry: the exact top-n of every lane — lane j
// scores users[j] and excludes partner exclude[j] (< 0 excludes no one;
// a nil exclude excludes no one in any lane) — over the events pred
// allows (nil allows all), plus the live delta's pairs when delta is
// non-nil, with one fan-out. It computes the shared event-affinity
// panel, runs each shard's TopNBatch over all lanes
// (concurrently when there are several shards), sums the stats, and
// merges each lane's per-shard answers in canonical order onto dst[:0],
// lane after lane. When outs is non-nil it must have one entry per lane,
// and outs[j] receives lane j's slice of the returned results. The
// predicate is shipped to every shard (events are replicated, so it is
// shard-invariant) and pushed into each shard's threshold walk; each
// shard's answer is exact, so the merge is too. A lane's answer does not
// depend on the lanes beside it: same pairs, same score bits, same tie
// order as the lane asked alone.
//
// With a delta, each shard's lanes scan the delta pairs whose partner
// the shard owns after their walks (ta.BatchQuery.Delta), reading the
// partner affinities at partner − lo, the translation excludes get. A
// delta event at position i comes back as event NumEvents()+i, the
// index a Fold gives it, and a predicate covers it at the same index:
// beside a delta, the predicate's length must be NumEvents() +
// delta.Events(). The delta must have the engine's dimension and global
// partner IDs (see NewDelta), and the caller serializes Search with the
// delta's writes.
//
// Stats.Shards reuses shardStats when its capacity suffices. dst and
// shardStats are grown — and thus allocated — only when too small (nil
// buffers are fine), so with warmed buffers a steady-state query
// allocates nothing.
func (e *Engine) Search(users [][]float32, exclude []int32, n int, pred ta.EventPredicate, delta *ta.Delta,
	dst []ta.Result, outs [][]ta.Result, shardStats []ShardStats) ([]ta.Result, Stats, error) {
	start := time.Now()
	if err := e.check(n, pred, delta, users...); err != nil {
		return nil, Stats{}, err
	}
	if exclude != nil && len(exclude) != len(users) {
		return nil, Stats{}, fmt.Errorf("engine: %d lanes but %d excludes", len(users), len(exclude))
	}
	pairs := e.pairs
	if delta != nil {
		pairs += delta.PairCount()
	}
	dst = slices.Grow(dst[:0], len(users)*min(n, pairs))
	if len(users) == 0 {
		return dst, Stats{}, nil
	}
	fs := e.pool.Get().(*fanoutScratch)
	defer e.pool.Put(fs)
	fs.users = append(fs.users[:0], users...)
	fs.exclude = nil
	if exclude != nil {
		fs.excl = append(fs.excl[:0], exclude...)
		fs.exclude = fs.excl
	}
	fs.q = ta.BatchQuery{Users: fs.users, N: n, Pred: pred, Delta: delta}

	var stats Stats
	// The per-event affinities are shard-invariant (every shard
	// replicates the event rows), so one panel serves all shards.
	t0 := time.Now()
	fs.q.EventAff = e.affSet.EventAffinityPanel(fs.q.Users, &fs.prepass)
	stats.Prepass = time.Since(t0)

	ns := len(e.shards)
	fs.wg.Add(ns)
	if ns == 1 {
		fs.fns[0]()
	} else {
		for _, fn := range fs.fns {
			go fn()
		}
		fs.wg.Wait()
	}

	if cap(shardStats) < ns {
		shardStats = make([]ShardStats, ns)
	}
	stats.Shards = shardStats[:ns]
	var maxWall time.Duration
	for i := range fs.runs {
		r := &fs.runs[i]
		ss := ShardStats{Shard: i, Wall: r.wall}
		for _, st := range r.stats {
			ss.Stats.SortedAccesses += st.SortedAccesses
			ss.Stats.RandomAccesses += st.RandomAccesses
			ss.Stats.Elapsed += st.Elapsed
			ss.Stats.Candidates = st.Candidates
		}
		stats.Shards[i] = ss
		stats.Agg.SortedAccesses += ss.Stats.SortedAccesses
		stats.Agg.RandomAccesses += ss.Stats.RandomAccesses
		stats.Agg.Candidates += ss.Stats.Candidates
		stats.Agg.Elapsed += ss.Stats.Elapsed
		maxWall = max(maxWall, r.wall)
	}

	m0 := time.Now()
	for j := range users {
		for i := range fs.runs {
			fs.lists[i], fs.heads[i] = fs.runs[i].res[j], 0
		}
		lo := len(dst)
		dst = mergeCanonical(fs.lists, fs.heads, n, dst)
		if outs != nil {
			outs[j] = dst[lo:len(dst):len(dst)]
		}
	}
	stats.Merge = time.Since(m0)
	// Retain no caller data in the pool.
	clear(fs.users)
	fs.q = ta.BatchQuery{}

	stats.Agg.Elapsed += stats.Prepass + stats.Merge
	stats.Wall = time.Since(start)
	stats.CriticalPath = stats.Prepass + maxWall + stats.Merge
	return dst, stats, nil
}

// SearchInto is a one-lane Search. It remains only because the benchmark
// harness names it (ROADMAP 1e).
func (e *Engine) SearchInto(userVec []float32, n int, exclude int32, dst []ta.Result, shardStats []ShardStats) ([]ta.Result, Stats, error) {
	return e.Search([][]float32{userVec}, []int32{exclude}, n, nil, nil, dst, nil, shardStats)
}

// SearchBatch is an unconstrained Search whose lanes land in a fresh
// slice each. It remains only because the benchmark harness names it
// (ROADMAP 1e).
func (e *Engine) SearchBatch(users [][]float32, n int, exclude []int32) ([][]ta.Result, Stats, error) {
	var outs [][]ta.Result
	if len(users) > 0 {
		outs = make([][]ta.Result, len(users))
	}
	_, stats, err := e.Search(users, exclude, n, nil, nil, nil, outs, nil)
	return outs, stats, err
}

// check validates a query at the engine boundary.
func (e *Engine) check(n int, pred ta.EventPredicate, delta *ta.Delta, users ...[]float32) error {
	if n <= 0 {
		return fmt.Errorf("engine: n must be positive, got %d", n)
	}
	for j, u := range users {
		if len(u) != e.k {
			return fmt.Errorf("engine: user %d vector length %d, want %d", j, len(u), e.k)
		}
	}
	events := e.NumEvents()
	if delta != nil {
		if delta.K() != e.k {
			return fmt.Errorf("engine: delta dimension %d, want %d", delta.K(), e.k)
		}
		events += delta.Events()
	}
	if pred != nil && len(pred) != events {
		return fmt.Errorf("engine: predicate has %d entries, want %d events", len(pred), events)
	}
	return nil
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
