package main

import (
	"encoding/json"
	"fmt"
	"math"

	"ebsn"
	"ebsn/internal/ta"
	"ebsn/serve"
)

// minQuantizedRecall is the documented quality floor of the int8 path:
// recall@10 against the exact ranking.
const minQuantizedRecall = 0.99

// scored is one ranked answer in a comparable form: a pair (event,
// partner) or a bare event or partner with the other field zero.
type scored struct {
	event, partner int32
	score          float32
}

// closeScores reports whether two scores agree up to float32 summation
// order — the tolerance the repo's own exactness tests use.
func closeScores(a, b float32) bool {
	return math.Abs(float64(a)-float64(b)) <= 1e-4*(1+math.Abs(float64(a)))
}

// sameRanking checks got against the oracle ranking want, which may run
// a few places longer so that a tie at the cut-off can be told from a
// wrong answer. Scores must agree rank by rank; where the IDs differ,
// got's pair must appear in want with the same score (two pairs with
// equal scores may legitimately swap places).
func sameRanking(got, want []scored, n int) error {
	if len(want) < n {
		n = len(want)
	}
	if len(got) != n {
		return fmt.Errorf("got %d results, want %d", len(got), n)
	}
	for i, g := range got {
		if !closeScores(g.score, want[i].score) {
			return fmt.Errorf("rank %d: score %v, oracle %v", i, g.score, want[i].score)
		}
		if g.event == want[i].event && g.partner == want[i].partner {
			continue
		}
		found := false
		for _, w := range want {
			if w.event == g.event && w.partner == g.partner && closeScores(g.score, w.score) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("rank %d: pair (event %d, partner %d) is not in the oracle's top %d", i, g.event, g.partner, len(want))
		}
	}
	return nil
}

func pairsOf(rr *serve.RankingResponse) []scored {
	out := make([]scored, len(rr.Pairs))
	for i, p := range rr.Pairs {
		out[i] = scored{p.Event, p.Partner, p.Score}
	}
	return out
}

func fromPairs(ps []ebsn.PairRecommendation) []scored {
	out := make([]scored, len(ps))
	for i, p := range ps {
		out[i] = scored{p.Event, p.Partner, p.Score}
	}
	return out
}

// oracleSlack is how many places past n the brute-force oracles rank.
const oracleSlack = 4

// oracle re-derives answers without the code path that produced them:
// brute force over the candidate space for joint and constrained
// queries, the facade for the rest.
type oracle struct {
	rec     *ebsn.Recommender // the exact recommender; read-only here
	set     *ta.CandidateSet  // candidate space rebuilt outside the server
	windows []window
	shadow  *ebsn.Recommender // live-churn: fed the same ingests as the server
	// quantized recall is judged on the mean over the run, as the
	// documented floor is.
	recallSum float64
	recallN   int
	// journal is every live event the server has accepted, in order. A
	// reload replays it into one delta on a fresh model, which prunes
	// per partner over all of it at once — not the same candidate pairs
	// as cycle-by-cycle folds — so the shadow is rebuilt the same way
	// before it judges an answer given after a reload.
	journal     []serve.IngestEvent
	shadowStale bool
}

func newOracle(e *env) (*oracle, error) {
	o := &oracle{rec: e.rec}
	var err error
	switch e.workload {
	case wlLiveChurn:
		o.shadow, err = newShadow(e.rec)
	case wlVariants:
		if o.windows, err = windows(e.rec); err != nil {
			return nil, err
		}
		o.set, err = candidateSet(e.rec)
	default:
		o.set, err = candidateSet(e.rec)
	}
	return o, err
}

// newShadow returns a recommender serving e's embeddings with its own
// one-shard index, as Warm builds it.
func newShadow(rec *ebsn.Recommender) (*ebsn.Recommender, error) {
	sh, err := clone(rec)
	if err != nil {
		return nil, err
	}
	return sh, sh.PrepareJointSharded(pruneK(sh), 1)
}

// replayShadow rebuilds the shadow as a reload rebuilds the server: a
// fresh model with the whole journal in one uncompacted delta.
func (o *oracle) replayShadow() error {
	sh, err := newShadow(o.rec)
	if err != nil {
		return err
	}
	for _, ev := range o.journal {
		if _, err := sh.IngestColdEvent(ev.Words, ev.Venue, ev.Start); err != nil {
			return err
		}
	}
	o.shadow, o.shadowStale = sh, false
	return nil
}

// bruteForce ranks every candidate pair whose event pred allows (nil
// allows all) for the user, excluding the user as their own partner:
// CandidateSet.BruteForceTopN when unconstrained, filter-then-rank
// otherwise.
func (o *oracle) bruteForce(user int32, pred ebsn.EventPredicate) []scored {
	te := o.rec.Split().TestEvents
	uv := o.rec.Model().UserVec(user)
	want := topN + oracleSlack
	var rs []ta.Result
	if pred == nil {
		// The user's own pairs, at most pruneK of them, may lead the
		// unfiltered ranking.
		for _, r := range o.set.BruteForceTopN(uv, want+pruneK(o.rec)) {
			if r.Partner != user {
				rs = append(rs, r)
			}
		}
	} else {
		for i, p := range o.set.Pairs {
			if p.Partner == user || !pred[p.Event] {
				continue
			}
			r := ta.Result{Event: p.Event, Partner: p.Partner, Score: o.set.Score(uv, i)}
			j := len(rs)
			if j < want {
				rs = append(rs, r)
			} else if r.Outranks(rs[j-1]) {
				j--
				rs[j] = r
			} else {
				continue
			}
			for ; j > 0 && rs[j].Outranks(rs[j-1]); j-- {
				rs[j], rs[j-1] = rs[j-1], rs[j]
			}
		}
	}
	if len(rs) > want {
		rs = rs[:want]
	}
	out := make([]scored, len(rs))
	for i, r := range rs {
		out[i] = scored{te[r.Event], r.Partner, r.Score}
	}
	return out
}

// check verifies one kept response. A nil return means the response is
// the right answer to its request.
func (o *oracle) check(s sample) error {
	r := s.req
	switch r.kind {
	case kPartners, kConstrained, kQuantized, kLive:
		var rr serve.RankingResponse
		if err := json.Unmarshal(s.body, &rr); err != nil {
			return err
		}
		if rr.User != r.user || rr.N != topN {
			return fmt.Errorf("answer is for user %d n %d", rr.User, rr.N)
		}
		got := pairsOf(&rr)
		switch r.kind {
		case kPartners:
			return sameRanking(got, o.bruteForce(r.user, nil), topN)
		case kConstrained:
			pred, _ := o.rec.CompileConstraint(o.windows[r.window].constraint())
			return sameRanking(got, o.bruteForce(r.user, pred), topN)
		case kLive:
			if o.shadowStale {
				if err := o.replayShadow(); err != nil {
					return err
				}
			}
			want, err := o.shadow.TopEventPartnersLive(r.user, topN)
			if err != nil {
				return err
			}
			return sameRanking(got, fromPairs(want), topN)
		default:
			exact, err := o.rec.TopEventPartnersSharded(r.user, topN)
			if err != nil {
				return err
			}
			hit := 0
			for _, g := range got {
				for _, w := range exact {
					if g.event == w.Event && g.partner == w.Partner {
						hit++
						break
					}
				}
			}
			o.recallSum += float64(hit) / float64(len(exact))
			o.recallN++
			return nil
		}
	case kEvents:
		var rr serve.RankingResponse
		if err := json.Unmarshal(s.body, &rr); err != nil {
			return err
		}
		want, err := o.rec.TopEvents(r.user, topN)
		if err != nil {
			return err
		}
		got := make([]scored, len(rr.Events))
		for i, e := range rr.Events {
			got[i] = scored{event: e.Event, score: e.Score}
		}
		ws := make([]scored, len(want))
		for i, e := range want {
			ws[i] = scored{event: e.Event, score: e.Score}
		}
		return sameRanking(got, ws, topN)
	case kBatch:
		var br serve.BatchRankingResponse
		if err := json.Unmarshal(s.body, &br); err != nil {
			return err
		}
		if len(br.Results) != len(r.users) {
			return fmt.Errorf("batch answered %d of %d users", len(br.Results), len(r.users))
		}
		for j, u := range r.users {
			want, err := o.rec.TopEventPartnersSharded(u, topN)
			if err != nil {
				return err
			}
			if br.Results[j].User != u {
				return fmt.Errorf("batch slot %d is for user %d, want %d", j, br.Results[j].User, u)
			}
			if err := sameRanking(pairsOf(&br.Results[j]), fromPairs(want), topN); err != nil {
				return fmt.Errorf("batch slot %d: %w", j, err)
			}
		}
		return nil
	case kFeed:
		var fr serve.FeedResponse
		if err := json.Unmarshal(s.body, &fr); err != nil {
			return err
		}
		want, err := o.rec.Feed(r.user, topN, feedM)
		if err != nil {
			return err
		}
		if len(fr.Items) != len(want) {
			return fmt.Errorf("feed has %d items, want %d", len(fr.Items), len(want))
		}
		for i, it := range fr.Items {
			if it.Event != want[i].Event || !closeScores(it.Score, want[i].Score) {
				return fmt.Errorf("feed item %d: event %d score %v, want %d %v", i, it.Event, it.Score, want[i].Event, want[i].Score)
			}
			got := make([]scored, len(it.Partners))
			for j, p := range it.Partners {
				got[j] = scored{partner: p.Partner, score: p.Score}
			}
			ws := make([]scored, len(want[i].Partners))
			for j, p := range want[i].Partners {
				ws[j] = scored{partner: p.Partner, score: p.Score}
			}
			if err := sameRanking(got, ws, feedM); err != nil {
				return fmt.Errorf("feed item %d partners: %w", i, err)
			}
		}
		return nil
	case kIngest:
		var ir serve.IngestResponse
		if err := json.Unmarshal(s.body, &ir); err != nil {
			return err
		}
		if ir.Ingested != len(r.events) || len(ir.IDs) != len(r.events) {
			return fmt.Errorf("ingested %d of %d events", ir.Ingested, len(r.events))
		}
		// Mirror the batch into the shadow; live IDs count down from -1 in
		// arrival order on both sides.
		for j, ev := range r.events {
			id, err := o.shadow.IngestColdEvent(ev.Words, ev.Venue, ev.Start)
			if err != nil {
				return err
			}
			if ir.IDs[j] != id {
				return fmt.Errorf("event %d got live id %d, shadow %d", j, ir.IDs[j], id)
			}
		}
		o.journal = append(o.journal, r.events...)
		return nil
	case kCompact:
		var cr serve.CompactResponse
		if err := json.Unmarshal(s.body, &cr); err != nil {
			return err
		}
		if cr.PendingEvents != 0 || cr.LiveEvents != len(o.journal) || cr.Compaction.Failures != 0 {
			return fmt.Errorf("after compaction: %d pending, %d live (want 0, %d), %d failures",
				cr.PendingEvents, cr.LiveEvents, len(o.journal), cr.Compaction.Failures)
		}
		return o.shadow.CompactLiveEvents()
	case kReload:
		var rr serve.ReloadResponse
		if err := json.Unmarshal(s.body, &rr); err != nil {
			return err
		}
		if rr.Replayed != len(o.journal) {
			return fmt.Errorf("reload replayed %d live events, want %d", rr.Replayed, len(o.journal))
		}
		o.shadowStale = true
		return nil
	}
	return fmt.Errorf("no oracle for %s", r.kind)
}

// checkAll verifies samples in the order they were kept — which for
// live-churn is the order the shadow must see them — and returns how
// many failed, with the first failure.
func (o *oracle) checkAll(samples []sample) (failed int, first error) {
	for _, s := range samples {
		if err := o.check(s); err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("%s %s: %w", s.req.method(), s.req.path, err)
			}
		}
	}
	return failed, first
}

// recall is the mean quantized recall@10 seen so far (1 when no
// quantized answer was sampled).
func (o *oracle) recall() float64 {
	if o.recallN == 0 {
		return 1
	}
	return o.recallSum / float64(o.recallN)
}
