package ebsn

import (
	"fmt"
	"time"

	"ebsn/internal/engine"
	"ebsn/internal/ta"
	"ebsn/internal/vecmath"
)

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
// Each event's start and venue are kept, so a constraint can be
// evaluated against it.
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
	for i, e := range events[:len(vecs)] {
		*r.live = append(*r.live, ColdEvent{Venue: e.Venue, Start: e.Start})
		ids[i] = -int32(len(*r.live))
	}
	return ids, foldErr
}

// TopEventPartnersLive is Recommend for one unconstrained user. It
// remains only because the benchmark harness names it (ROADMAP 1e).
func (r *Recommender) TopEventPartnersLive(user int32, n int) ([]PairRecommendation, error) {
	return r.TopEventPartnersSharded(user, n)
}

// firstLive returns how many ingested events a re-prepare dropped; the
// rest are candidates, in the index order of the live engine and delta.
func (r *Recommender) firstLive() int {
	n := len(*r.live)
	if r.taDelta != nil {
		n -= r.taDelta.Folded() + r.taDelta.Events()
	}
	return n
}

// jointPairs converts joint-query results to dataset IDs: test events
// first, then the live candidates as negative LiveEventIDs.
func (r *Recommender) jointPairs(res []ta.Result) []PairRecommendation {
	testN := int32(len(r.split.TestEvents))
	first := int32(r.firstLive())
	out := make([]PairRecommendation, len(res))
	for i, rr := range res {
		event := -first - (rr.Event - testN + 1)
		if rr.Event < testN {
			event = r.split.TestEvents[rr.Event]
		}
		out[i] = PairRecommendation{Event: event, Partner: rr.Partner, Score: rr.Score}
	}
	return out
}

// jointPredicate compiles c over the test events (CompileConstraint),
// then the live candidates by their start and venue; zero gives nil.
func (r *Recommender) jointPredicate(c Constraint) EventPredicate {
	pred, _ := r.CompileConstraint(c)
	if pred == nil {
		return nil
	}
	for _, e := range (*r.live)[r.firstLive():] {
		pred = append(pred, c.Allow(e.Start, r.dataset.Venues[e.Venue]))
	}
	return pred
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
	// base is the live engine being forked; folded is Run's result.
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
	return &Compaction{delta: r.taDelta, view: r.taDelta.View(), workers: r.cfg.Threads, base: r.taLiveEngine}
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
func (r *Recommender) LiveEventCount() int { return len(*r.live) }

// PendingLiveEvents returns how many ingested events still sit in the
// mutable delta tier — the compaction queue depth.
func (r *Recommender) PendingLiveEvents() int {
	if r.taDelta == nil {
		return 0
	}
	return r.taDelta.Events()
}

// PendingLivePairs returns the candidate pairs in the delta tier: every
// joint query checks each of them against its predicate and its partner
// bound, and scores those they let through, until the next compaction.
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
