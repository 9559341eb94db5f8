package engine

import (
	"fmt"
	"sync"

	"ebsn/internal/ta"
)

// Request is one self-contained shard query. Every field a shard needs
// to answer is carried in the request — no ambient state — so the same
// struct can cross a process boundary unchanged.
type Request struct {
	// UserVec is the querying user's embedding (length K).
	UserVec []float32
	// N is the number of results wanted from this shard.
	N int
	// ExcludePartner is a global partner ID to exclude (< 0 excludes no
	// one). Shards not owning the ID ignore it.
	ExcludePartner int32
	// EventAff optionally carries the shared per-event affinity pass
	// userVec·Events[x], indexed like the candidate set's events. It is
	// derivable from UserVec — the engine precomputes it once per query
	// so in-process shards skip the shard-invariant half of the work; a
	// transport moving requests across processes may omit it and let the
	// shard recompute, trading bandwidth for compute, never correctness.
	// When Quantized is set the pass carries the approximate affinities,
	// which are likewise shard-invariant.
	EventAff []float32
	// Quantized routes the shard search through its int8 candidate
	// mirrors (the shard must have been packed via PackQuantized — the
	// engine's EnableQuantized packs every shard).
	Quantized bool
	// Pred optionally restricts the search to predicate-allowed events.
	// Events are replicated across shards, so the same predicate — indexed
	// by candidate-set event — is valid on every shard unchanged; the
	// fan-out ships one predicate to all shards exactly like EventAff.
	// Nil means unrestricted.
	Pred ta.EventPredicate
	// Dst, when non-nil, offers a buffer Response.Results may reuse — an
	// allocation optimization for in-process shards; transports ignore
	// it.
	Dst []ta.Result
}

// Response is a shard's half of the scatter-gather exchange.
type Response struct {
	// Results is the shard's exact top-N in canonical order
	// (ta.Result.Outranks), with partner IDs already translated to the
	// global space.
	Results []ta.Result
	// Stats is the TA work this request cost the shard.
	Stats ta.SearchStats
}

// BatchRequest is one self-contained shard batch: every user of the
// batch queried against the shard in a single call, sharing one panel
// pass over the shard's partner rows.
type BatchRequest struct {
	// Users holds one K-dim vector per batch lane.
	Users [][]float32
	// N is the per-user result count.
	N int
	// Exclude is one global partner ID per user (nil excludes no one).
	Exclude []int32
	// EventAff optionally carries the shared event-affinity panel, laid
	// out user-major (u·|X| .. (u+1)·|X|), produced by
	// ta.EventAffinityPanel over replicated event rows. Same transport
	// semantics as Request.EventAff.
	EventAff []float32
	// Quantized routes the batch through the shard's int8 mirrors.
	Quantized bool
	// Pred optionally restricts every query of the batch to
	// predicate-allowed events (shard-invariant, like Request.Pred).
	Pred ta.EventPredicate
	// Dst and DstStats, when non-nil, offer buffers the response may
	// reuse; transports ignore them.
	Dst      [][]ta.Result
	DstStats []ta.SearchStats
}

// BatchResponse is a shard's answer to a BatchRequest.
type BatchResponse struct {
	// Results holds each user's canonical top-N with global partner IDs,
	// indexed like BatchRequest.Users.
	Results [][]ta.Result
	// Stats is the per-user TA work, indexed like Users.
	Stats []ta.SearchStats
}

// Shard answers self-contained top-n requests over one contiguous
// partner range of the candidate space. Implementations must be safe
// for concurrent Search and SearchBatch calls — the engine fans one
// query's requests out in parallel and may overlap queries.
type Shard interface {
	// Search answers one request exactly.
	Search(req Request) (Response, error)
	// SearchBatch answers every user of the batch in one call.
	SearchBatch(req BatchRequest) (BatchResponse, error)
	// PartnerRange returns the global partner ID range [lo, hi) this
	// shard owns.
	PartnerRange() (lo, hi int32)
	// Pairs returns the number of candidate pairs resident on the shard.
	Pairs() int
}

// localShard is the in-process Shard: a self-contained candidate set
// over partners [lo, hi) (events replicated, partner rows copied) with
// its own FastIndex. Local partner IDs are global IDs minus lo.
type localShard struct {
	set    *ta.CandidateSet
	idx    *ta.FastIndex
	lo, hi int32
}

// Search runs the shard-local TA search on pooled scratch and returns
// results in global partner IDs.
func (s *localShard) Search(req Request) (Response, error) {
	if req.N <= 0 {
		return Response{}, fmt.Errorf("engine: shard request n must be positive, got %d", req.N)
	}
	if len(req.UserVec) != s.set.K {
		return Response{}, fmt.Errorf("engine: shard request user vector length %d, want %d", len(req.UserVec), s.set.K)
	}
	exclude := int32(-1)
	if req.ExcludePartner >= s.lo && req.ExcludePartner < s.hi {
		exclude = req.ExcludePartner - s.lo
	}
	sc := ta.GetScratch()
	defer ta.PutScratch(sc)
	res, stats := s.idx.Search(ta.Query{
		Vec:       req.UserVec,
		N:         req.N,
		Exclude:   exclude,
		EventAff:  req.EventAff,
		Pred:      req.Pred,
		Quantized: req.Quantized,
	}, sc)
	// The raw results alias the scratch; copy them out (into the
	// caller's buffer when offered) translating partners to global IDs.
	// Local IDs are offset by a constant, so the canonical order — which
	// breaks score ties by ascending partner — is preserved.
	out := req.Dst[:0]
	if cap(out) < len(res) {
		out = make([]ta.Result, 0, len(res))
	}
	for _, r := range res {
		r.Partner += s.lo
		out = append(out, r)
	}
	return Response{Results: out, Stats: stats}, nil
}

// shardBatchState is one batch call's shard-side scratch: the ta batch
// scratch plus the translated-exclusion buffer.
type shardBatchState struct {
	bsc  *ta.BatchScratch
	excl []int32
}

var shardBatchPool = sync.Pool{New: func() any { return &shardBatchState{bsc: ta.GetBatchScratch()} }}

// SearchBatch runs the whole batch against the shard with one
// partner-panel pass, translating exclusions in and partner IDs out.
func (s *localShard) SearchBatch(req BatchRequest) (BatchResponse, error) {
	if req.N <= 0 {
		return BatchResponse{}, fmt.Errorf("engine: shard batch n must be positive, got %d", req.N)
	}
	for j, u := range req.Users {
		if len(u) != s.set.K {
			return BatchResponse{}, fmt.Errorf("engine: shard batch user %d vector length %d, want %d", j, len(u), s.set.K)
		}
	}
	if req.Exclude != nil && len(req.Exclude) != len(req.Users) {
		return BatchResponse{}, fmt.Errorf("engine: shard batch has %d users but %d excludes", len(req.Users), len(req.Exclude))
	}
	nb := len(req.Users)
	sb := shardBatchPool.Get().(*shardBatchState)
	defer shardBatchPool.Put(sb)

	var excl []int32
	if req.Exclude != nil {
		sb.excl = resize(sb.excl, nb)
		excl = sb.excl
		for j, g := range req.Exclude {
			if g >= s.lo && g < s.hi {
				excl[j] = g - s.lo
			} else {
				excl[j] = -1
			}
		}
	}
	res, stats := s.idx.TopNBatch(ta.BatchQuery{
		Users:     req.Users,
		N:         req.N,
		Exclude:   excl,
		EventAff:  req.EventAff,
		Quantized: req.Quantized,
		Pred:      req.Pred,
	}, sb.bsc)

	// Copy out of the pooled scratch into caller-offered (and otherwise
	// fresh) response storage, translating partners to the global ID
	// space — the response must not alias the pooled scratch.
	outs := req.Dst
	if cap(outs) < nb {
		outs = make([][]ta.Result, nb)
	}
	outs = outs[:nb]
	outStats := req.DstStats
	if cap(outStats) < nb {
		outStats = make([]ta.SearchStats, nb)
	}
	outStats = outStats[:nb]
	for j, rs := range res {
		dst := outs[j][:0]
		if cap(dst) < len(rs) {
			dst = make([]ta.Result, 0, len(rs))
		}
		for _, r := range rs {
			r.Partner += s.lo
			dst = append(dst, r)
		}
		outs[j] = dst
		outStats[j] = stats[j]
	}
	return BatchResponse{Results: outs, Stats: outStats}, nil
}

// PartnerRange returns the shard's global partner range [lo, hi).
func (s *localShard) PartnerRange() (lo, hi int32) { return s.lo, s.hi }

// Pairs returns the shard's resident candidate-pair count.
func (s *localShard) Pairs() int { return len(s.set.Pairs) }
