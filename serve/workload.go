package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ebsn"
	"ebsn/internal/obs"
)

// This file is the serving surface of the scenario workloads: the
// constraint parameters of GET /v1/events and GET /v1/partners (time
// window and geo radius pushed into the TA walk), POST /v1/group/events
// (multi-member aggregation), and GET /v1/feed (events joined with
// companions). Every request landing here is counted in
// ebsn_serve_workload_requests_total by kind.

// Workload kinds for the workload_requests_total counter.
const (
	workloadGroup       = "group"
	workloadConstrained = "constrained"
	workloadFeed        = "feed"
)

// parseConstraint reads the from/until/within parameters of the
// constrained GET endpoints, answering a malformed one with 400. Absent
// parameters yield the zero Constraint, the unconstrained path; every
// request carrying one is counted as a constrained workload.
func (s *Server) parseConstraint(w http.ResponseWriter, vals url.Values) (ebsn.Constraint, bool) {
	c, err := ebsn.ParseConstraint(vals.Get("from"), vals.Get("until"), vals.Get("within"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return c, false
	}
	if !c.IsZero() {
		s.metrics.RecordWorkload(workloadConstrained)
	}
	return c, true
}

// defaultFeedPartners is the companion count per feed event when ?m= is
// absent.
const defaultFeedPartners = 5

// encodeEvents renders one user's event recommendations with start
// times.
func encodeEvents(d *ebsn.Dataset, user int32, n int, recs []ebsn.Recommendation) *RankingResponse {
	resp := &RankingResponse{User: user, N: n, Events: make([]EventResult, len(recs))}
	for i, e := range recs {
		resp.Events[i] = EventResult{
			Event: e.Event,
			Start: d.Events[e.Event].Start.Format(time.RFC3339),
			Score: e.Score,
		}
	}
	return resp
}

// GroupEventsRequest is the POST /v1/group/events body: the member set,
// an aggregation strategy, and an optional constraint in the same wire
// form as the GET parameters.
type GroupEventsRequest struct {
	// Members are the group's user IDs (at most Config.MaxBatch).
	Members []int32 `json:"members"`
	// N is the result count (Config.DefaultN when 0).
	N int `json:"n,omitempty"`
	// Strategy is "mean" (default) or "least-misery".
	Strategy string `json:"strategy,omitempty"`
	// From and Until bound event start times (RFC 3339, half-open).
	From  string `json:"from,omitempty"`
	Until string `json:"until,omitempty"`
	// Within is "lat,lng,radiusKm" around which event venues must lie.
	Within string `json:"within,omitempty"`
}

// GroupEventsResponse is the POST /v1/group/events payload.
type GroupEventsResponse struct {
	Members  []int32       `json:"members"`
	N        int           `json:"n"`
	Strategy string        `json:"strategy"`
	Events   []EventResult `json:"events"`
}

// handleGroupEvents is POST /v1/group/events: one ranking for a set of
// users under mean or least-misery aggregation, optionally constrained.
// Group responses are not cached — member sets are high-cardinality keys
// with little reuse, exactly like the batch endpoints.
func (s *Server) handleGroupEvents(w http.ResponseWriter, r *http.Request) {
	sp := s.tracer.Start(epGroup)
	defer sp.End()
	s.metrics.RecordWorkload(workloadGroup)
	var req GroupEventsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad group body: "+err.Error())
		return
	}
	strat, err := ebsn.ParseGroupStrategy(req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	c, err := ebsn.ParseConstraint(req.From, req.Until, req.Within)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	n := req.N
	if n == 0 {
		n = s.cfg.DefaultN
	}
	if n < 0 || n > s.cfg.MaxN {
		writeError(w, http.StatusBadRequest, "invalid n (1 ≤ n ≤ "+strconv.Itoa(s.cfg.MaxN)+")")
		return
	}
	if len(req.Members) == 0 {
		writeError(w, http.StatusBadRequest, "members must be non-empty")
		return
	}
	if len(req.Members) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			"group of "+strconv.Itoa(len(req.Members))+" members exceeds the "+strconv.Itoa(s.cfg.MaxBatch)+"-member limit")
		return
	}
	sp.SetAttr("members", int64(len(req.Members)))
	sp.SetAttr("n", int64(n))
	sp.Stage("query")
	s.mu.RLock()
	rec := s.rec
	nu := rec.Dataset().NumUsers
	for i, u := range req.Members {
		if int(u) < 0 || int(u) >= nu {
			s.mu.RUnlock()
			writeError(w, http.StatusBadRequest,
				"members["+strconv.Itoa(i)+"] = "+strconv.Itoa(int(u))+" out of range (0 ≤ user < "+strconv.Itoa(nu)+")")
			return
		}
	}
	recs, err := rec.GroupTopEventsConstrained(req.Members, n, strat, c)
	if err != nil {
		s.mu.RUnlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sp.Stage("encode")
	d := rec.Dataset()
	resp := &GroupEventsResponse{Members: req.Members, N: n, Strategy: strat.String(), Events: make([]EventResult, len(recs))}
	for i, e := range recs {
		resp.Events[i] = EventResult{
			Event: e.Event,
			Start: d.Events[e.Event].Start.Format(time.RFC3339),
			Score: e.Score,
		}
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

// FeedPartnerResult is one companion inside a feed item.
type FeedPartnerResult struct {
	Partner int32   `json:"partner"`
	Friend  bool    `json:"friend"`
	Score   float32 `json:"score"`
}

// FeedItemResult is one event of the feed with its joined companions.
type FeedItemResult struct {
	Event    int32               `json:"event"`
	Start    string              `json:"start"`
	Score    float32             `json:"score"`
	Partners []FeedPartnerResult `json:"partners"`
}

// FeedResponse is the GET /v1/feed payload.
type FeedResponse struct {
	User  int32            `json:"user"`
	N     int              `json:"n"`
	M     int              `json:"m"`
	Items []FeedItemResult `json:"items"`
}

// handleFeed is GET /v1/feed: the user's top-n events each joined with
// their top-m companions, served through the response cache with a
// bounded staleness window. The cache key folds in the generation (so
// ingest/compaction/reload invalidate immediately) plus a FeedTTL-wide
// time bucket, so even an idle generation re-renders a user's feed at
// most Config.FeedTTL after the previous render.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	s.metrics.RecordWorkload(workloadFeed)
	s.serveCached(w, r, s.newQuery(epFeed, r.URL.Query(), ebsn.Constraint{}, true), (*Server).queryFeed)
}

func (s *Server) queryFeed(rec *ebsn.Recommender, q *getQuery, sp *obs.Span) (any, error) {
	sp.Stage("query")
	user := int32(q.user)
	items, err := rec.Feed(user, q.n, q.m)
	if err != nil {
		return nil, err
	}
	sp.Stage("encode")
	d := rec.Dataset()
	resp := &FeedResponse{User: user, N: q.n, M: q.m, Items: make([]FeedItemResult, len(items))}
	for i, it := range items {
		fr := FeedItemResult{
			Event:    it.Event,
			Start:    d.Events[it.Event].Start.Format(time.RFC3339),
			Score:    it.Score,
			Partners: make([]FeedPartnerResult, len(it.Partners)),
		}
		for j, p := range it.Partners {
			fr.Partners[j] = FeedPartnerResult{
				Partner: p.Partner,
				Friend:  d.AreFriends(user, p.Partner),
				Score:   p.Score,
			}
		}
		resp.Items[i] = fr
	}
	return resp, nil
}
