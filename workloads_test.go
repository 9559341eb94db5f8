package ebsn

import (
	"math"
	"sort"
	"testing"
	"time"

	"ebsn/internal/ebsnet"
	"ebsn/internal/vecmath"
)

// testWindow returns a constraint covering roughly the middle half of
// the test events' start times — a selective but non-empty window.
func testWindow(t *testing.T, rec *Recommender) Constraint {
	t.Helper()
	events := rec.Split().TestEvents
	starts := make([]time.Time, len(events))
	for i, x := range events {
		starts[i] = rec.Dataset().Events[x].Start
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
	c := Constraint{From: starts[len(starts)/4], Until: starts[3*len(starts)/4]}
	if _, allowed := rec.CompileConstraint(c); allowed == 0 || allowed == len(events) {
		t.Fatalf("window is degenerate: %d of %d allowed", allowed, len(events))
	}
	return c
}

func TestTopEventsConstrained(t *testing.T) {
	rec := tinyRecommender(t)
	c := testWindow(t, rec)
	pred, allowed := rec.CompileConstraint(c)

	n := 7
	if n > allowed {
		n = allowed
	}
	got, err := rec.TopEventsConstrained(1, n, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}

	// Filter-then-rank oracle over the brute event scan.
	type se struct {
		x int32
		s float32
	}
	var oracle []se
	for i, x := range rec.Split().TestEvents {
		if !pred[i] {
			continue
		}
		oracle = append(oracle, se{x, rec.Model().ScoreUserEvent(1, x)})
	}
	sort.SliceStable(oracle, func(i, j int) bool { return oracle[i].s > oracle[j].s })
	for i, g := range got {
		if g.Event != oracle[i].x || g.Score != oracle[i].s {
			t.Fatalf("rank %d: got (%d, %v), oracle (%d, %v)", i, g.Event, g.Score, oracle[i].x, oracle[i].s)
		}
		if !c.Allow(rec.Dataset().Events[g.Event].Start, rec.Dataset().Venues[rec.Dataset().Events[g.Event].Venue]) {
			t.Fatalf("result event %d violates constraint", g.Event)
		}
	}

	// Zero constraint matches TopEvents exactly.
	plain, err := rec.TopEvents(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := rec.TopEventsConstrained(1, 7, Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(zero) {
		t.Fatalf("zero constraint returned %d, want %d", len(zero), len(plain))
	}
	for i := range plain {
		if plain[i] != zero[i] {
			t.Fatalf("zero constraint diverges at %d: %+v vs %+v", i, zero[i], plain[i])
		}
	}
}

func TestTopEventPartnersConstrained(t *testing.T) {
	rec := tinyRecommender(t)
	c := testWindow(t, rec)

	// Exhaustive reference: the unconstrained ranking of the full
	// candidate space (n clamps to the pair count), post-filtered. At
	// full depth, filter-then-rank and rank-then-filter agree.
	nAll := len(rec.Split().TestEvents) * rec.Dataset().NumUsers
	full, _, err := rec.TopEventPartnersStats(2, nAll)
	if err != nil {
		t.Fatal(err)
	}
	ds := rec.Dataset()
	var want []PairRecommendation
	for _, p := range full {
		e := ds.Events[p.Event]
		if c.Allow(e.Start, ds.Venues[e.Venue]) {
			want = append(want, p)
		}
	}

	n := 10
	if n > len(want) {
		n = len(want)
	}
	if n == 0 {
		t.Fatal("constraint filtered out every candidate pair")
	}
	got, stats, err := rec.TopEventPartnersConstrainedStats(2, n, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if stats.Candidates == 0 {
		t.Fatal("stats not populated")
	}

	if _, _, err := rec.TopEventPartnersConstrainedStats(-1, 5, c); err == nil {
		t.Error("negative user accepted")
	}
	if _, _, err := rec.TopEventPartnersConstrainedStats(2, 0, c); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestGroupTopEvents(t *testing.T) {
	rec := tinyRecommender(t)

	// A single-member group degenerates to TopEvents under both
	// strategies: the mean of one vector is the vector, and min over one
	// score is the score.
	plain, err := rec.TopEvents(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []GroupStrategy{GroupMean, GroupLeastMisery} {
		got, err := rec.GroupTopEvents([]int32{3}, 6, strat)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(plain) {
			t.Fatalf("%v: got %d results, want %d", strat, len(got), len(plain))
		}
		for i := range plain {
			if got[i].Event != plain[i].Event {
				t.Fatalf("%v: rank %d event %d, want %d", strat, i, got[i].Event, plain[i].Event)
			}
			if math.Abs(float64(got[i].Score-plain[i].Score)) > 1e-5 {
				t.Fatalf("%v: rank %d score %v, want %v", strat, i, got[i].Score, plain[i].Score)
			}
		}
	}

	// Multi-member: results are sorted test events, and least misery is
	// upper-bounded by every member's own score for the chosen event.
	members := []int32{0, 1, 2}
	for _, strat := range []GroupStrategy{GroupMean, GroupLeastMisery} {
		got, err := rec.GroupTopEvents(members, 5, strat)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("%v: got %d results", strat, len(got))
		}
		for i, g := range got {
			if i > 0 && g.Score > got[i-1].Score {
				t.Fatalf("%v: not sorted at %d", strat, i)
			}
			if rec.Split().Class(g.Event) != ebsnet.Test {
				t.Fatalf("%v: non-test event %d", strat, g.Event)
			}
			if strat == GroupLeastMisery {
				for _, u := range members {
					if s := rec.Model().ScoreUserEvent(u, g.Event); s < g.Score {
						t.Fatalf("least-misery score %v exceeds member %d's own %v", g.Score, u, s)
					}
				}
			}
		}
	}

	if _, err := rec.GroupTopEvents(nil, 5, GroupMean); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := rec.GroupTopEvents([]int32{0, 999999}, 5, GroupMean); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, err := rec.GroupTopEvents([]int32{0}, 0, GroupMean); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestFeed(t *testing.T) {
	rec := tinyRecommender(t)
	n, m := 4, 3
	items, err := rec.Feed(2, n, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != n {
		t.Fatalf("got %d items, want %d", len(items), n)
	}
	top, err := rec.TopEvents(2, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Event != top[i].Event || it.Score != top[i].Score {
			t.Fatalf("item %d is (%d, %v), want TopEvents' (%d, %v)", i, it.Event, it.Score, top[i].Event, top[i].Score)
		}
		if len(it.Partners) == 0 || len(it.Partners) > m {
			t.Fatalf("item %d has %d partners, want 1..%d", i, len(it.Partners), m)
		}
		for j, p := range it.Partners {
			if p.Partner == 2 {
				t.Fatal("querying user surfaced as their own companion")
			}
			if j > 0 && p.Score > it.Partners[j-1].Score {
				t.Fatalf("item %d partners not sorted at %d", i, j)
			}
			// The feed's joint score must agree with the explanation
			// surface's decomposition (different accumulation order, so
			// approximate equality).
			b, err := rec.Explain(2, p.Partner, it.Event)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(float64(p.Score-b.Total)) > 1e-3 {
				t.Fatalf("item %d partner %d score %v, Explain total %v", i, p.Partner, p.Score, b.Total)
			}
		}
	}

	if _, err := rec.Feed(2, n, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := rec.Feed(-1, n, m); err == nil {
		t.Error("negative user accepted")
	}
}

// perEventJoin is the feed join as it was before the panel form: for
// each event x, one pass over the user rows scoring u·x + (u+x)·u' with
// scalar dot products, top m by strict-> insertion in ascending partner
// order. It is the independent reference for the served feed.
func perEventJoin(rec *Recommender, user int32, events []Recommendation, m int) [][]FeedPartner {
	u := rec.Model().UserVec(user)
	nu := rec.Dataset().NumUsers
	m = min(m, nu)
	out := make([][]FeedPartner, len(events))
	for i, ev := range events {
		x := rec.Model().EventVec(ev.Event)
		q := make([]float32, len(u))
		for f := range q {
			q[f] = u[f] + x[f]
		}
		base := vecmath.Dot(u, x)
		best := make([]FeedPartner, 0, m)
		for p := int32(0); int(p) < nu; p++ {
			if p == user {
				continue
			}
			s := base + vecmath.Dot(q, rec.Model().UserVec(p))
			j := len(best)
			if j < m {
				best = append(best, FeedPartner{Partner: p, Score: s})
			} else if s > best[m-1].Score {
				j = m - 1
				best[j] = FeedPartner{Partner: p, Score: s}
			} else {
				continue
			}
			for ; j > 0 && best[j].Score > best[j-1].Score; j-- {
				best[j], best[j-1] = best[j-1], best[j]
			}
		}
		out[i] = best
	}
	return out
}

// TestFeedBitIdenticalToPerEventJoin checks the panel feed join against
// the per-event scalar loop with == on (event, partner, score bits):
// every feed length up to 9 plus all test events (all panel
// remainders), m from 1 to more than the user count, and queriers on
// the 256-row block edges. The tiny city has fewer than 256 users, so
// the test trains (briefly — only bits matter here) a tiny city with
// enough users for two full blocks and a ragged third.
func TestFeedBitIdenticalToPerEventJoin(t *testing.T) {
	gc := GeneratorConfigFor(CityTiny, 5)
	gc.NumUsers, gc.TargetAttendance = 700, 10500
	d, err := GenerateDataset(gc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Build(d, Config{Seed: 5, Threads: 1, TrainSteps: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	nu := rec.Dataset().NumUsers
	if nu <= 2*256 {
		t.Fatalf("city has %d users; the block edges need more than 512", nu)
	}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, len(rec.Split().TestEvents)}
	for _, user := range []int32{0, 255, 256, int32(nu - 1)} {
		for _, n := range ns {
			top, err := rec.TopEvents(user, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 3, nu + 5} {
				got, err := rec.Feed(user, n, m)
				if err != nil {
					t.Fatal(err)
				}
				want := perEventJoin(rec, user, top, m)
				if len(got) != len(want) {
					t.Fatalf("user %d n %d m %d: %d items, want %d", user, n, m, len(got), len(want))
				}
				for i, it := range got {
					if it.Event != top[i].Event || math.Float32bits(it.Score) != math.Float32bits(top[i].Score) {
						t.Fatalf("user %d n %d m %d item %d: event %d/%v, want %d/%v",
							user, n, m, i, it.Event, it.Score, top[i].Event, top[i].Score)
					}
					if len(it.Partners) != len(want[i]) {
						t.Fatalf("user %d n %d m %d item %d: %d partners, want %d",
							user, n, m, i, len(it.Partners), len(want[i]))
					}
					for j, p := range it.Partners {
						w := want[i][j]
						if p.Partner != w.Partner || math.Float32bits(p.Score) != math.Float32bits(w.Score) {
							t.Fatalf("user %d n %d m %d item %d rank %d: partner %d/%v, want %d/%v",
								user, n, m, i, j, p.Partner, p.Score, w.Partner, w.Score)
						}
					}
				}
			}
		}
	}
}
