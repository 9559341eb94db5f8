package ebsn

import (
	"fmt"

	"ebsn/internal/ta"
	"ebsn/internal/vecmath"
	"ebsn/internal/workload"
)

// This file is the facade over internal/workload: the scenario surface
// (group, constrained, feed) expressed in dataset IDs and trained-model
// vectors. The heavy lifting — constraint compilation, aggregation
// strategies, the feed join — lives in internal/workload; the TA
// predicate push-down lives in internal/ta and internal/engine.

// Workload scenario types, re-exported so callers never import internal
// packages.
type (
	// Constraint restricts recommendations to a time window and/or geo
	// radius (see workload.Constraint).
	Constraint = workload.Constraint
	// GroupStrategy selects how member preferences aggregate
	// (mean or least-misery).
	GroupStrategy = workload.Strategy
	// FeedItem is one "for you" feed entry: an event joined with its top
	// companions.
	FeedItem = workload.FeedItem
	// FeedPartner is one companion recommendation inside a FeedItem.
	FeedPartner = workload.FeedPartner
	// EventPredicate is the compiled event filter the TA walk consumes.
	EventPredicate = ta.EventPredicate
)

// The group aggregation strategies.
const (
	// GroupMean averages member preferences — one query with the
	// averaged member vector.
	GroupMean = workload.StrategyMean
	// GroupLeastMisery ranks events by their least-enthusiastic member.
	GroupLeastMisery = workload.StrategyLeastMisery
)

// ParseConstraint parses the wire form of a constraint: RFC 3339 from
// and until plus a "lat,lng,radiusKm" within. Empty strings impose
// nothing.
func ParseConstraint(from, until, within string) (Constraint, error) {
	return workload.ParseConstraint(from, until, within)
}

// ParseGroupStrategy parses "mean" or "least-misery" (empty defaults to
// mean).
func ParseGroupStrategy(s string) (GroupStrategy, error) { return workload.ParseStrategy(s) }

// CompileConstraint evaluates the constraint over the test (cold) events
// — the candidate space of every recommendation surface — returning the
// predicate in candidate-set event order plus the allowed-event count. A
// zero constraint compiles to a nil predicate, the signal for every
// query path to stay on its exact unconstrained code.
func (r *Recommender) CompileConstraint(c Constraint) (EventPredicate, int) {
	return workload.Compile(c, r.dataset, r.split.TestEvents)
}

// selectTopEvents runs the shared top-n selection over the test events
// under an arbitrary scoring function: a strict-> insertion, so ties
// keep first-seen (ascending event) order across TopEvents and every
// scenario. skip, when non-nil, drops events before scoring.
func (r *Recommender) selectTopEvents(n int, skip EventPredicate, score func(i int, x int32) float32) []Recommendation {
	best := make([]Recommendation, 0, n)
	for i, x := range r.split.TestEvents {
		if skip != nil && !skip[i] {
			continue
		}
		s := score(i, x)
		switch {
		case len(best) < n:
			best = append(best, Recommendation{Event: x, Score: s})
		case s > best[n-1].Score:
			best[n-1] = Recommendation{Event: x, Score: s}
		default:
			continue
		}
		for up := len(best) - 1; up > 0 && best[up].Score > best[up-1].Score; up-- {
			best[up], best[up-1] = best[up-1], best[up]
		}
	}
	return best
}

// TopEventsConstrained is TopEvents restricted to events satisfying the
// constraint: the predicate filters candidates before scoring, so the
// result is the exact top n of the allowed subset (fewer when fewer
// allowed events exist). A zero constraint is identical to TopEvents.
func (r *Recommender) TopEventsConstrained(user int32, n int, c Constraint) ([]Recommendation, error) {
	if err := r.checkUserN(user, n); err != nil {
		return nil, err
	}
	pred, _ := r.CompileConstraint(c)
	return r.selectTopEvents(n, pred, func(_ int, x int32) float32 {
		return r.model.ScoreUserEvent(user, x)
	}), nil
}

// TopEventPartnersConstrained is TopEventPartners restricted to events
// satisfying the constraint, with the predicate pushed into the TA
// threshold walk (not post-filtered; see DESIGN.md §3.10) — the result
// is the exact constrained top n. Constrained queries answer over the
// base index only: events ingested live (IngestColdEvent) carry no
// dataset metadata to evaluate the constraint against and are not
// candidates here.
func (r *Recommender) TopEventPartnersConstrained(user int32, n int, c Constraint) ([]PairRecommendation, error) {
	out, _, err := r.TopEventPartnersConstrainedStats(user, n, c)
	return out, err
}

// TopEventPartnersConstrainedStats is TopEventPartnersConstrained plus
// the TA work counters, aggregated over the engine's shards.
func (r *Recommender) TopEventPartnersConstrainedStats(user int32, n int, c Constraint) ([]PairRecommendation, SearchStats, error) {
	// Deliberately jointSearch's base engine, never liveEngine(): a
	// compacted live tier holds folded live events past the test-event
	// range, which the predicate (compiled over split.TestEvents) cannot
	// cover.
	pred, _ := r.CompileConstraint(c)
	out, es, err := r.jointSearch(user, n, pred)
	return out, es.Agg, err
}

// GroupTopEvents recommends the top-n events for a group of users under
// the given aggregation strategy. The mean strategy averages the member
// vectors into one query point (exactly equivalent to averaging scores,
// since the score is an inner product); least misery scores every
// member per event and keeps the minimum. Duplicated members weight the
// mean accordingly and are idempotent under least misery.
func (r *Recommender) GroupTopEvents(members []int32, n int, strategy GroupStrategy) ([]Recommendation, error) {
	return r.GroupTopEventsConstrained(members, n, strategy, Constraint{})
}

// GroupTopEventsConstrained is GroupTopEvents with a constraint filter —
// the combination the group endpoint serves. A zero constraint imposes
// nothing.
func (r *Recommender) GroupTopEventsConstrained(members []int32, n int, strategy GroupStrategy, c Constraint) ([]Recommendation, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ebsn: group has no members")
	}
	if n <= 0 {
		return nil, fmt.Errorf("ebsn: n must be positive")
	}
	vecs := make([][]float32, len(members))
	for i, u := range members {
		if int(u) < 0 || int(u) >= r.dataset.NumUsers {
			return nil, fmt.Errorf("ebsn: member %d out of range [0,%d)", u, r.dataset.NumUsers)
		}
		vecs[i] = r.model.UserVec(u)
	}
	pred, _ := r.CompileConstraint(c)
	if strategy == GroupLeastMisery {
		scores := make([]float32, len(members))
		return r.selectTopEvents(n, pred, func(_ int, x int32) float32 {
			for i, u := range members {
				scores[i] = r.model.ScoreUserEvent(u, x)
			}
			return GroupLeastMisery.Reduce(scores)
		}), nil
	}
	mean := workload.MeanVector(vecs, nil)
	return r.selectTopEvents(n, pred, func(_ int, x int32) float32 {
		return vecmath.Dot(mean, r.model.EventVec(x))
	}), nil
}

// Feed assembles the user's "for you" feed: the top-n cold events (as
// TopEvents ranks them), each joined with the top-m companions under the
// full joint score of Eqn. 8. For a fixed event the join is one dot
// product per partner with the combined query u+x, and the n combined
// queries share one panel pass over the user rows (see
// workload.JoinPartners); the querying user is excluded from every
// partner list. Feeds cover the base candidate space only — live
// ingested events surface through TopEventPartnersLive, not the feed.
func (r *Recommender) Feed(user int32, n, m int) ([]FeedItem, error) {
	if m <= 0 {
		return nil, fmt.Errorf("ebsn: m must be positive")
	}
	top, err := r.TopEvents(user, n)
	if err != nil {
		return nil, err
	}
	events := make([][]float32, len(top))
	for i, rec := range top {
		events[i] = r.model.EventVec(rec.Event)
	}
	partners := workload.JoinPartners(r.model.UserVec(user), events, r.model.Users.Data, user, m)
	items := make([]FeedItem, len(top))
	for i, rec := range top {
		items[i] = FeedItem{Event: rec.Event, Score: rec.Score, Partners: partners[i]}
	}
	return items, nil
}
