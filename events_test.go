package ebsn

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// refTopEvents is the test-side reference ranking: every allowed test
// event scored by score, sorted stably by descending score so ties keep
// first-seen (test-event) order, truncated to n.
func refTopEvents(rec *Recommender, n int, pred EventPredicate, score func(x int32) float32) []Recommendation {
	var out []Recommendation
	for i, x := range rec.Split().TestEvents {
		if pred == nil || pred[i] {
			out = append(out, Recommendation{Event: x, Score: score(x)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out[:min(n, len(out))]
}

// sameRecommendations fails the test unless got is == to want on
// (event, score bits), rank by rank.
func sameRecommendations(t *testing.T, label string, want, got []Recommendation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Event != want[i].Event || math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
			t.Fatalf("%s: rank %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestEventRankingsAgree pins the one cold-event ranker: TopEvents,
// TopEventsConstrained, every TopEventsBatch lane, a one-member group
// under both strategies and the feed's event order all equal the
// ScoreUserEvent reference bit for bit, for a duplicated user, n from 1
// past the event count, and a zero and a window constraint; TopEvents
// also at every n for one user. A
// three-member least-misery group equals the per-event minimum of its
// members' scores. The table runs again on a WithSnapshot clone whose
// event rows are negated, so a clone that ranked from its parent's
// packed rows would fail, and whose first test event's row is copied
// onto two later ones, so every user sees exact ties.
func TestEventRankingsAgree(t *testing.T) {
	base := tinyRecommender(t)
	window := testWindow(t, base)
	snap := base.Model().Snapshot()
	for i := range snap.Events.Data {
		snap.Events.Data[i] = -snap.Events.Data[i]
	}
	test := base.Split().TestEvents
	for _, x := range []int32{test[len(test)/2], test[len(test)-1]} {
		copy(snap.Events.Row(x), snap.Events.Row(test[0]))
	}
	negated, err := base.WithSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	users := []int32{0, 7, 3, 7, int32(base.Dataset().NumUsers - 1)}
	nx := len(base.Split().TestEvents)

	for name, rec := range map[string]*Recommender{"base": base, "negated clone with ties": negated} {
		score := func(u int32) func(x int32) float32 {
			return func(x int32) float32 { return rec.Model().ScoreUserEvent(u, x) }
		}
		for _, n := range []int{1, 6, nx + 3} {
			batch, err := rec.TopEventsBatch(users, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []Constraint{{}, window} {
				pred, _ := rec.CompileConstraint(c)
				for j, u := range users {
					label := fmt.Sprintf("%s n=%d constrained=%v user %d", name, n, !c.IsZero(), u)
					want := refTopEvents(rec, n, pred, score(u))
					got := map[string][]Recommendation{}
					if got["TopEventsConstrained"], err = rec.TopEventsConstrained(u, n, c); err != nil {
						t.Fatal(err)
					}
					for _, strat := range []GroupStrategy{GroupMean, GroupLeastMisery} {
						if got["group "+strat.String()], err = rec.GroupTopEvents([]int32{u}, n, strat, c); err != nil {
							t.Fatal(err)
						}
					}
					if c.IsZero() {
						if got["TopEvents"], err = rec.TopEvents(u, n); err != nil {
							t.Fatal(err)
						}
						got["batch lane"] = batch[j]
						feed, err := rec.Feed(u, n, 1)
						if err != nil {
							t.Fatal(err)
						}
						for _, it := range feed {
							got["feed"] = append(got["feed"], Recommendation{Event: it.Event, Score: it.Score})
						}
					}
					for path, g := range got {
						sameRecommendations(t, label+" "+path, want, g)
					}
				}
			}
		}

		// Every cut through one user's ranking, so some n splits the ties.
		for n := 1; n <= nx; n++ {
			got, err := rec.TopEvents(users[0], n)
			if err != nil {
				t.Fatal(err)
			}
			sameRecommendations(t, fmt.Sprintf("%s n=%d user %d", name, n, users[0]), refTopEvents(rec, n, nil, score(users[0])), got)
		}

		members := []int32{0, 1, 2}
		for _, c := range []Constraint{{}, window} {
			pred, _ := rec.CompileConstraint(c)
			want := refTopEvents(rec, 6, pred, func(x int32) float32 {
				s := rec.Model().ScoreUserEvent(members[0], x)
				for _, m := range members[1:] {
					s = min(s, rec.Model().ScoreUserEvent(m, x))
				}
				return s
			})
			got, err := rec.GroupTopEvents(members, 6, GroupLeastMisery, c)
			if err != nil {
				t.Fatal(err)
			}
			sameRecommendations(t, fmt.Sprintf("%s least-misery group constrained=%v", name, !c.IsZero()), want, got)
		}
	}
}

func TestTopEventsBatchValidation(t *testing.T) {
	rec := tinyRecommender(t)
	if _, err := rec.TopEventsBatch([]int32{0}, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := rec.TopEventsBatch([]int32{-5}, 3); err == nil {
		t.Error("bad user accepted")
	}
	if out, err := rec.TopEventsBatch(nil, 3); err != nil || len(out) != 0 {
		t.Error("empty user list should be a no-op")
	}
	// A bad user in the middle of a large batch fails the whole batch.
	users := make([]int32, 64)
	for i := range users {
		users[i] = int32(i % rec.Dataset().NumUsers)
	}
	users[40] = int32(rec.Dataset().NumUsers) // out of range
	if out, err := rec.TopEventsBatch(users, 3); err == nil || out != nil {
		t.Error("mid-batch bad user not reported")
	}
}
