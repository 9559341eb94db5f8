package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ebsn"
)

// BatchQueryRequest is the body of the batched query endpoints
// (POST /v1/events and POST /v1/partners): one ranking per user, all
// answered by a single engine traversal. N falls back to Config.DefaultN
// when omitted.
type BatchQueryRequest struct {
	// Users are the user IDs to rank for, at most Config.MaxBatch of
	// them; larger batches are rejected with 400.
	Users []int32 `json:"users"`
	// N is the per-user result count (Config.DefaultN when 0).
	N int `json:"n,omitempty"`
}

// BatchRankingResponse is the payload of the batched query endpoints:
// Results is indexed like the request's users.
type BatchRankingResponse struct {
	// N is the resolved per-user result count.
	N int `json:"n"`
	// Results carries one ranking per requested user, in request order.
	Results []RankingResponse `json:"results"`
}

// validateBatch checks a batch body against the configured caps and the
// serving model's user space, returning the resolved n. Over-cap batches
// bump the rejection counter — they are a client-shaping signal, not an
// error of the server's.
func (s *Server) validateBatch(rec *ebsn.Recommender, req *BatchQueryRequest) (int, error) {
	if len(req.Users) == 0 {
		return 0, errors.New("users must be non-empty")
	}
	if len(req.Users) > s.cfg.MaxBatch {
		s.metrics.RecordBatchRejected()
		return 0, fmt.Errorf("batch of %d users exceeds the %d-user limit; split the request", len(req.Users), s.cfg.MaxBatch)
	}
	nu := rec.Dataset().NumUsers
	for i, u := range req.Users {
		if int(u) < 0 || int(u) >= nu {
			return 0, fmt.Errorf("users[%d] = %d out of range (0 ≤ user < %d)", i, u, nu)
		}
	}
	n := req.N
	if n == 0 {
		n = s.cfg.DefaultN
	}
	if n < 0 || n > s.cfg.MaxN {
		return 0, fmt.Errorf("invalid n (1 ≤ n ≤ %d)", s.cfg.MaxN)
	}
	return n, nil
}

// decodeBatch parses a batch body (1 MiB cap, unknown fields rejected).
func decodeBatch(w http.ResponseWriter, r *http.Request) (*BatchQueryRequest, bool) {
	var req BatchQueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return nil, false
	}
	return &req, true
}

// encodePairs renders one user's pair recommendations, truncated to n.
func encodePairs(d *ebsn.Dataset, user int32, n int, pairs []ebsn.PairRecommendation) *RankingResponse {
	if len(pairs) > n {
		pairs = pairs[:n]
	}
	resp := &RankingResponse{User: user, N: n, Pairs: make([]PairResult, len(pairs))}
	for i, p := range pairs {
		pr := PairResult{
			Event:   p.Event,
			Live:    p.Event < 0,
			Partner: p.Partner,
			Friend:  d.AreFriends(user, p.Partner),
			Score:   p.Score,
		}
		if p.Event >= 0 {
			pr.Start = d.Events[p.Event].Start.Format(time.RFC3339)
		}
		resp.Pairs[i] = pr
	}
	return resp
}

// eventScratchPool reuses TopEventsBatchScratch buffers across batched
// event requests; results are encoded before the scratch goes back.
var eventScratchPool = sync.Pool{New: func() any { return new(ebsn.EventBatchScratch) }}

// handleEventsBatch is POST /v1/events: one panel pass over the test
// events scores the whole batch, bit-identical to per-user GETs.
func (s *Server) handleEventsBatch(w http.ResponseWriter, r *http.Request) {
	sp := s.tracer.Start(epEventsBatch)
	defer sp.End()
	req, ok := decodeBatch(w, r)
	if !ok {
		return
	}
	s.mu.RLock()
	rec := s.rec
	n, err := s.validateBatch(rec, req)
	if err != nil {
		s.mu.RUnlock()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sp.SetAttr("batch", int64(len(req.Users)))
	sp.SetAttr("n", int64(n))
	sp.Stage("query")
	sc := eventScratchPool.Get().(*ebsn.EventBatchScratch)
	res, err := rec.TopEventsBatchScratch(req.Users, n, sc)
	if err != nil {
		eventScratchPool.Put(sc)
		s.mu.RUnlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.RecordBatch(len(req.Users))
	sp.Stage("encode")
	d := rec.Dataset()
	resp := &BatchRankingResponse{N: n, Results: make([]RankingResponse, len(res))}
	for j, recs := range res {
		rr := RankingResponse{User: req.Users[j], N: n, Events: make([]EventResult, len(recs))}
		for i, e := range recs {
			rr.Events[i] = EventResult{
				Event: e.Event,
				Start: d.Events[e.Event].Start.Format(time.RFC3339),
				Score: e.Score,
			}
		}
		resp.Results[j] = rr
	}
	eventScratchPool.Put(sc) // results are encoded; the scratch is free
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

// handlePartnersBatch is POST /v1/partners: the whole batch fans out to
// each engine shard once, with the affinity passes shared across users
// as matrix panels. Results are bit-identical to per-user GETs.
func (s *Server) handlePartnersBatch(w http.ResponseWriter, r *http.Request) {
	sp := s.tracer.Start(epPartnersBatch)
	defer sp.End()
	req, ok := decodeBatch(w, r)
	if !ok {
		return
	}
	s.mu.RLock()
	rec := s.rec
	n, err := s.validateBatch(rec, req)
	if err != nil {
		s.mu.RUnlock()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sp.SetAttr("batch", int64(len(req.Users)))
	sp.SetAttr("n", int64(n))
	sp.Stage("ta_search")
	batch, bs, err := rec.TopEventPartnersBatchStats(req.Users, n)
	if err != nil {
		s.mu.RUnlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.RecordTA(bs.Agg)
	if len(bs.Shards) > 0 {
		s.metrics.RecordEngine(bs)
	}
	s.metrics.RecordBatch(len(req.Users))
	sp.SetAttr("ta_candidates", int64(bs.Agg.Candidates))
	sp.SetAttr("shards", int64(len(bs.Shards)))
	for _, ss := range bs.Shards {
		sp.StageDur("shard"+strconv.Itoa(ss.Shard), ss.Wall)
	}
	sp.Stage("encode")
	d := rec.Dataset()
	resp := &BatchRankingResponse{N: n, Results: make([]RankingResponse, len(batch))}
	for j, pairs := range batch {
		resp.Results[j] = *encodePairs(d, req.Users[j], n, pairs)
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}
