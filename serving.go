package ebsn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ebsn/internal/engine"
	"ebsn/internal/ta"
	"ebsn/internal/vecmath"
)

// TopEventsBatch computes top-n cold-event recommendations for many users
// concurrently — the offline path behind daily-digest jobs. Results are
// indexed like users; workers ≤ 0 means Config.Threads. The first
// per-user error cancels the remaining work: other workers stop at their
// next user instead of finishing chunks whose results are already doomed.
func (r *Recommender) TopEventsBatch(users []int32, n, workers int) ([][]Recommendation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ebsn: n must be positive")
	}
	if workers <= 0 {
		workers = r.cfg.Threads
	}
	if workers > len(users) {
		workers = len(users)
	}
	if workers < 1 {
		workers = 1
	}
	out := make([][]Recommendation, len(users))
	var wg sync.WaitGroup
	chunk := (len(users) + workers - 1) / workers
	var failed atomic.Bool
	var firstErr error
	var mu sync.Mutex
	for lo := 0; lo < len(users); lo += chunk {
		hi := lo + chunk
		if hi > len(users) {
			hi = len(users)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if failed.Load() {
					return
				}
				recs, err := r.TopEvents(users[i], n)
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				out[i] = recs
			}
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// LiveEventID identifies an event ingested after training: negative
// values distinguish it from dataset event IDs in PairRecommendation
// results. ID -1 is the first ingested event, -2 the second, and so on.
type LiveEventID = int32

// ColdEvent is one brand-new event for IngestColdEvents: its tokenized
// description, its venue (a dataset venue ID) and its start time.
type ColdEvent struct {
	Words []string
	Venue int32
	Start time.Time
}

// IngestColdEvent folds a brand-new event (created after training) into
// the serving path: its embedding is synthesized from trained word,
// region and time vectors (FoldInEvent), and its candidate pairs join the
// joint-recommendation index's delta buffer immediately — no retraining,
// no index rebuild. The returned LiveEventID appears (negated) as the
// Event field of PairRecommendations that include it. It is
// IngestColdEvents of one event.
func (r *Recommender) IngestColdEvent(words []string, venue int32, start time.Time) (LiveEventID, error) {
	ids, err := r.IngestColdEvents([]ColdEvent{{Words: words, Venue: venue, Start: start}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// IngestColdEvents ingests events in order, exactly as that many
// IngestColdEvent calls would, but scores them against the user rows
// four events per pass (ta.Delta.AddEvents) instead of one pass per
// event. Every event is folded in first; if one fails, the events
// before it are still ingested, and their IDs come back with the error.
func (r *Recommender) IngestColdEvents(events []ColdEvent) ([]LiveEventID, error) {
	vecs := make([][]float32, 0, len(events))
	var foldErr error
	for _, e := range events {
		vec, err := r.FoldInEvent(e.Words, e.Venue, e.Start)
		if err != nil {
			foldErr = err
			break
		}
		vecs = append(vecs, vec)
	}
	if len(vecs) == 0 {
		return nil, foldErr
	}
	if r.taDelta == nil {
		if err := r.ensureEngine(); err != nil {
			return nil, err
		}
		delta, err := r.taEngine.NewDelta(r.taPruneK)
		if err != nil {
			return nil, err
		}
		r.taDelta = delta
	}
	if err := r.taDelta.AddEvents(vecs); err != nil {
		return nil, err
	}
	ids := make([]LiveEventID, len(vecs))
	for i := range ids {
		r.liveEvents++
		ids[i] = -int32(r.liveEvents)
	}
	return ids, foldErr
}

// TopEventPartnersLive is TopEventPartners over the base index plus every
// event ingested since. Live events surface with negative Event IDs (see
// LiveEventID); dataset events keep their usual IDs.
func (r *Recommender) TopEventPartnersLive(user int32, n int) ([]PairRecommendation, error) {
	out, _, err := r.TopEventPartnersLiveStats(user, n)
	return out, err
}

// TopEventPartnersLiveStats is TopEventPartnersLive plus the TA work
// counters for the query.
func (r *Recommender) TopEventPartnersLiveStats(user int32, n int) ([]PairRecommendation, SearchStats, error) {
	if r.taDelta == nil {
		return r.TopEventPartnersStats(user, n) // nothing ingested yet
	}
	if err := r.checkUserN(user, n); err != nil {
		return nil, SearchStats{}, err
	}
	// Two-tier query: exact top-n over the live base (the compacted fold
	// when one was installed, else the plain engine), overlaid with an
	// exhaustive scan of the delta. The merged results alias the pooled
	// scratch and are converted before it is released.
	userVec := r.model.UserVec(user)
	eng := r.liveEngine()
	base, es, err := eng.SearchInto(userVec, n, user, nil, nil)
	if err != nil {
		return nil, SearchStats{}, err
	}
	stats := es.Agg
	sc := ta.GetScratch()
	defer ta.PutScratch(sc)
	res := r.taDelta.MergeTopN(base, eng.NumEvents(), userVec, n, user, sc, &stats)

	testN := len(r.split.TestEvents)
	out := make([]PairRecommendation, 0, len(res))
	for _, rr := range res {
		var event int32
		switch {
		case rr.FromDelta:
			// Delta events are numbered by arrival within the current
			// delta; compacted events shift the numbering, so offset by
			// how many were already folded into the base.
			compacted := r.liveEvents - r.taDelta.Events()
			event = -int32(compacted) - (rr.Event + 1)
		case int(rr.Event) >= testN:
			// A previously compacted live event: positions past the
			// original test events map back to arrival order.
			event = -(rr.Event - int32(testN) + 1)
		default:
			event = r.split.TestEvents[rr.Event]
		}
		out = append(out, PairRecommendation{Event: event, Partner: rr.Partner, Score: rr.Score})
	}
	return out, stats, nil
}

// liveEngine returns the engine the live path fans out over: the
// compacted fork when a compaction has installed one, else the plain
// engine.
func (r *Recommender) liveEngine() *engine.Engine {
	if r.taLiveEngine != nil {
		return r.taLiveEngine
	}
	return r.taEngine
}

// Compaction is one in-flight background fold of the live delta into a
// fresh main tier. BeginCompaction captures it cheaply under the
// caller's writer lock, Run performs the expensive build with no lock
// held, and InstallCompaction swaps the result in under the writer lock
// again — so queries never wait on a rebuild.
type Compaction struct {
	delta   *ta.Delta
	view    ta.DeltaView
	workers int
	// base is the live engine being forked; folded is Run's result. The
	// fold inherits base's query mode (exact or quantized).
	base, folded *engine.Engine
}

// Events returns the number of delta events the compaction folds.
func (c *Compaction) Events() int { return len(c.view.Events) }

// BeginCompaction captures the pending delta as a compaction unit, or
// nil when nothing is pending. Must be serialized with ingestion and
// InstallCompaction (the caller's writer lock); the returned
// compaction's Run needs no lock.
func (r *Recommender) BeginCompaction() *Compaction {
	if r.taDelta == nil || r.taDelta.Events() == 0 {
		return nil
	}
	return &Compaction{delta: r.taDelta, view: r.taDelta.View(), workers: r.cfg.Threads, base: r.liveEngine()}
}

// Run builds the folded tier — the expensive step, run on any goroutine
// with no lock held; the old tiers keep serving meanwhile.
func (c *Compaction) Run() error {
	var err error
	c.folded, err = c.base.Fold(c.view, c.workers)
	return err
}

// InstallCompaction swaps the folded tier in as the live base and drops
// the folded prefix from the delta (events ingested after
// BeginCompaction stay queued). Serialize with ingestion and queries;
// the call is a pointer swap plus the residual-delta copy. It fails if
// the recommender's delta was replaced since BeginCompaction (a
// re-prepare) — the fold is then stale and discarded.
func (r *Recommender) InstallCompaction(c *Compaction) error {
	if c == nil {
		return nil
	}
	if r.taDelta != c.delta {
		return fmt.Errorf("ebsn: compaction superseded: candidate space re-prepared while the fold ran")
	}
	r.taLiveEngine = c.folded
	r.taDelta.Advance(c.view)
	return nil
}

// CompactLiveEvents folds all ingested events into the main index
// synchronously (BeginCompaction + Run + InstallCompaction in one
// call), keeping query latency flat as the delta grows. Live events
// keep their negative LiveEventIDs in subsequent results: compaction is
// invisible to callers apart from the latency profile. Services wanting
// the fold off the request path drive the three steps themselves.
func (r *Recommender) CompactLiveEvents() error {
	c := r.BeginCompaction()
	if c == nil {
		return nil
	}
	if err := c.Run(); err != nil {
		return err
	}
	return r.InstallCompaction(c)
}

// LiveEventCount returns how many events were ingested since training.
func (r *Recommender) LiveEventCount() int { return r.liveEvents }

// PendingLiveEvents returns how many ingested events still sit in the
// mutable delta tier — the compaction queue depth.
func (r *Recommender) PendingLiveEvents() int {
	if r.taDelta == nil {
		return 0
	}
	return r.taDelta.Events()
}

// PendingLivePairs returns the candidate pairs in the delta tier — the
// per-query exhaustive-scan cost until the next compaction.
func (r *Recommender) PendingLivePairs() int {
	if r.taDelta == nil {
		return 0
	}
	return r.taDelta.PairCount()
}

// ScoreBreakdown decomposes a joint recommendation score into the three
// pairwise terms of Eqn. 8 — the explanation surface for "why this event,
// why this partner": the user's own affinity for the event, the partner's
// affinity for it, and the social proximity of the two users.
type ScoreBreakdown struct {
	UserEvent    float32 // u·x  — how much the target user likes the event
	PartnerEvent float32 // u'·x — how much the partner likes the event
	Social       float32 // u·u' — how close the two users are
	Total        float32
}

// Explain returns the score decomposition for (user, partner, event) with
// a dataset event ID.
func (r *Recommender) Explain(user, partner, event int32) (ScoreBreakdown, error) {
	if int(user) < 0 || int(user) >= r.dataset.NumUsers {
		return ScoreBreakdown{}, fmt.Errorf("ebsn: user %d out of range", user)
	}
	if int(partner) < 0 || int(partner) >= r.dataset.NumUsers {
		return ScoreBreakdown{}, fmt.Errorf("ebsn: partner %d out of range", partner)
	}
	if int(event) < 0 || int(event) >= r.dataset.NumEvents() {
		return ScoreBreakdown{}, fmt.Errorf("ebsn: event %d out of range", event)
	}
	b := ScoreBreakdown{
		UserEvent:    r.model.ScoreUserEvent(user, event),
		PartnerEvent: r.model.ScoreUserEvent(partner, event),
		Social:       vecmath.Dot(r.model.UserVec(user), r.model.UserVec(partner)),
	}
	b.Total = b.UserEvent + b.PartnerEvent + b.Social
	return b, nil
}
