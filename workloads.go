package ebsn

import (
	"fmt"

	"ebsn/internal/ta"
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

// TopEventPartnersConstrainedStats is Recommend for one user. It remains
// only because the benchmark harness names it (ROADMAP 1e).
func (r *Recommender) TopEventPartnersConstrainedStats(user int32, n int, c Constraint) ([]PairRecommendation, EngineStats, error) {
	return firstLane(r.Recommend([]int32{user}, n, c))
}

// Feed assembles the user's "for you" feed: the top-n cold events (its
// head is TopEvents), each joined with the top-m companions under the
// full joint score of Eqn. 8. For a fixed event the join is one dot
// product per partner with the combined query u+x, and the n combined
// queries share one panel pass over the user rows (see
// workload.JoinPartners); the querying user is excluded from every
// partner list. Feeds cover the test events only — live ingested
// events surface through Recommend, not the feed.
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
