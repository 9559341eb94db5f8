package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ebsn"
)

// BatchQueryRequest is the body of the batched query endpoints
// (POST /v1/events and POST /v1/partners): one ranking per user, all
// answered by a single engine traversal. N falls back to defaultN
// when omitted.
type BatchQueryRequest struct {
	// Users are the user IDs to rank for, at most Config.MaxBatch of
	// them; larger batches are rejected with 400.
	Users []int32 `json:"users"`
	// N is the per-user result count (defaultN when 0).
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
		n = defaultN
	}
	if n < 0 || n > maxN {
		return 0, fmt.Errorf("invalid n (1 ≤ n ≤ %d)", maxN)
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
	res, err := rec.TopEventsBatch(req.Users, n)
	if err != nil {
		s.mu.RUnlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.RecordBatch(len(req.Users))
	sp.Stage("encode")
	d := rec.Dataset()
	resp := &BatchRankingResponse{N: n, Results: make([]RankingResponse, len(res))}
	for j, recs := range res {
		resp.Results[j] = RankingResponse{User: req.Users[j], N: n, Events: eventResults(d, recs)}
	}
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
	batch, es, err := rec.Recommend(req.Users, n, ebsn.Constraint{})
	if err != nil {
		s.mu.RUnlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.recordJoint(sp, es)
	s.metrics.RecordBatch(len(req.Users))
	sp.Stage("encode")
	d := rec.Dataset()
	resp := &BatchRankingResponse{N: n, Results: make([]RankingResponse, len(batch))}
	for j, pairs := range batch {
		resp.Results[j] = *encodePairs(d, req.Users[j], n, pairs)
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}
