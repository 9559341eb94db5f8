package ebsn

import (
	"fmt"
	"slices"
	"sync"

	"ebsn/internal/vecmath"
	"ebsn/internal/workload"
)

// This file is the cold-event ranker, the paper's first online task:
// rank the test events by u·x. Every event ranking — one user, a
// constrained user, a batch, a group, the feed's head — is lanes of one
// vecmath.DotPanel pass over the packed test-event rows, and each lane's
// top n comes out of selectTopEvents. A panel lane is bit-identical to
// vecmath.Dot, which is what Model.ScoreUserEvent computes.

// eventRows holds the test-event rows packed row-major (|X|×K) for the
// ranker's panel pass. The first ranking fills it: the model is frozen
// once queries start, and training runs after Assemble returns.
type eventRows struct {
	once sync.Once
	data []float32
}

// eventPanel is the ranker's pooled query and score panel: lane j of
// scores holds one query's score for every test event, in test-event
// order.
type eventPanel struct {
	qs, scores []float32
	nev        int
}

var eventPanelPool = sync.Pool{New: func() any { return new(eventPanel) }}

// lane returns query j's scores.
func (p *eventPanel) lane(j int) []float32 { return p.scores[j*p.nev : (j+1)*p.nev] }

// eventScores scores every test event for each query vector in one
// DotPanel pass over the packed test-event rows. Return the panel to
// eventPanelPool once its lanes are read.
func (r *Recommender) eventScores(vecs ...[]float32) *eventPanel {
	k, nev := r.model.K(), len(r.split.TestEvents)
	r.events.once.Do(func() {
		r.events.data = make([]float32, nev*k)
		for i, x := range r.split.TestEvents {
			copy(r.events.data[i*k:], r.model.EventVec(x))
		}
	})
	p := eventPanelPool.Get().(*eventPanel)
	p.qs = slices.Grow(p.qs[:0], len(vecs)*k)[:len(vecs)*k]
	for j, v := range vecs {
		copy(p.qs[j*k:], v)
	}
	p.nev = nev
	p.scores = slices.Grow(p.scores[:0], len(vecs)*nev)[:len(vecs)*nev]
	vecmath.DotPanel(p.qs, len(vecs), r.events.data, k, p.scores)
	return p
}

// selectTopEvents is the one top-n selection over a lane of test-event
// scores, skipping events pred disallows (nil allows all): a strict->
// insertion, so ties keep first-seen (test-event) order.
func (r *Recommender) selectTopEvents(n int, pred EventPredicate, scores []float32) []Recommendation {
	events := r.split.TestEvents[:len(scores)]
	best := make([]Recommendation, 0, min(n, len(scores)))
	var floor float32 // best[n-1].Score once best holds n
	for i, s := range scores {
		if len(best) == n && !(s > floor) || pred != nil && !pred[i] {
			continue
		}
		if len(best) < n {
			best = append(best, Recommendation{})
		}
		up := len(best) - 1
		for ; up > 0 && s > best[up-1].Score; up-- {
			best[up] = best[up-1]
		}
		best[up] = Recommendation{Event: events[i], Score: s}
		floor = best[len(best)-1].Score
	}
	return best
}

// checkUsers validates n and the users a ranking query takes.
func (r *Recommender) checkUsers(n int, users ...int32) error {
	if n <= 0 {
		return fmt.Errorf("ebsn: n must be positive")
	}
	for _, u := range users {
		if int(u) < 0 || int(u) >= r.dataset.NumUsers {
			return fmt.Errorf("ebsn: user %d out of range [0,%d)", u, r.dataset.NumUsers)
		}
	}
	return nil
}

// TopEvents ranks the cold (test) events for the user and returns the
// top n. These are exactly the events the paper's recommendation service
// would surface: future events with no attendance history.
func (r *Recommender) TopEvents(user int32, n int) ([]Recommendation, error) {
	return r.TopEventsConstrained(user, n, Constraint{})
}

// TopEventsConstrained is TopEvents restricted to events satisfying the
// constraint: the result is the exact top n of the allowed subset (fewer
// when fewer allowed events exist). A zero constraint is TopEvents.
func (r *Recommender) TopEventsConstrained(user int32, n int, c Constraint) ([]Recommendation, error) {
	if err := r.checkUsers(n, user); err != nil {
		return nil, err
	}
	pred, _ := r.CompileConstraint(c)
	p := r.eventScores(r.model.UserVec(user))
	defer eventPanelPool.Put(p)
	return r.selectTopEvents(n, pred, p.lane(0)), nil
}

// TopEventsBatch ranks the cold events for every user in one panel pass:
// lane j is users[j]'s TopEvents, bit for bit, tie order included.
// Results are indexed like users.
func (r *Recommender) TopEventsBatch(users []int32, n int) ([][]Recommendation, error) {
	if err := r.checkUsers(n, users...); err != nil {
		return nil, err
	}
	vecs := make([][]float32, len(users))
	for j, u := range users {
		vecs[j] = r.model.UserVec(u)
	}
	p := r.eventScores(vecs...)
	defer eventPanelPool.Put(p)
	out := make([][]Recommendation, len(users))
	for j := range out {
		out[j] = r.selectTopEvents(n, nil, p.lane(j))
	}
	return out, nil
}

// GroupTopEvents recommends the top-n events for a group of users under
// the given aggregation strategy, restricted to events satisfying the
// constraint (a zero constraint imposes nothing). The mean strategy is
// one lane of the averaged member vector (exactly equivalent to
// averaging scores, since the score is an inner product); least misery
// is one lane per member, reduced per event to the minimum in member
// order. Duplicated members weight the mean accordingly and are
// idempotent under least misery.
func (r *Recommender) GroupTopEvents(members []int32, n int, strategy GroupStrategy, c Constraint) ([]Recommendation, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ebsn: group has no members")
	}
	if err := r.checkUsers(n, members...); err != nil {
		return nil, err
	}
	vecs := make([][]float32, len(members))
	for i, u := range members {
		vecs[i] = r.model.UserVec(u)
	}
	if strategy != GroupLeastMisery {
		vecs = [][]float32{workload.MeanVector(vecs, nil)}
	}
	pred, _ := r.CompileConstraint(c)
	p := r.eventScores(vecs...)
	defer eventPanelPool.Put(p)
	scores := p.lane(0)
	if len(vecs) > 1 {
		col := make([]float32, len(vecs))
		for i := range scores {
			for m := range col {
				col[m] = p.lane(m)[i]
			}
			scores[i] = GroupLeastMisery.Reduce(col)
		}
	}
	return r.selectTopEvents(n, pred, scores), nil
}
