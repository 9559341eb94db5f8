package ebsn

import (
	"fmt"

	"ebsn/internal/vecmath"
)

// EnableQuantizedQueries packs int8 mirrors of the joint candidate
// space and routes subsequent joint queries — single, batched,
// constrained and the base tier of live ones — through the quantized
// search path: approximate int8 affinity passes over 4x-smaller
// candidate storage, with the top n·4 survivors re-ranked against the
// exact float32 rows (see ta.PackQuantized). The quantized path is
// approximate; its recall@10 against the exact ranking is gated ≥ 0.99
// in CI. The mode belongs to the prepared engine: it requires one
// (PrepareJoint / PrepareJointSharded / PrepareJointFromArtifact), a
// re-prepare starts exact again, and a compaction inherits it from the
// engine it folds. Must be serialized with other mutating calls.
func (r *Recommender) EnableQuantizedQueries() error {
	if r.taEngine == nil {
		return fmt.Errorf("ebsn: no joint index prepared; call PrepareJoint or PrepareJointSharded first")
	}
	r.taEngine.EnableQuantized()
	return nil
}

// QuantizedQueries reports whether joint queries route through the
// int8-quantized candidate mirrors — the prepared engine's mode, so a
// re-prepare resets it.
func (r *Recommender) QuantizedQueries() bool { return r.taEngine != nil && r.taEngine.Quantized() }

// TopEventPartnersBatch answers TopEventPartners for many users with
// one index traversal per batch: the affinity passes run as matrix
// panels shared across the batch (vecmath.DotPanel), and on a sharded
// engine the whole batch fans out to each shard once. Results are
// indexed like users. On the exact (non-quantized) path the results are
// bit-identical to per-user TopEventPartners calls — same pairs, same
// score bits, same tie order.
func (r *Recommender) TopEventPartnersBatch(users []int32, n int) ([][]PairRecommendation, error) {
	out, _, err := r.TopEventPartnersBatchStats(users, n)
	return out, err
}

// TopEventPartnersBatchStats is TopEventPartnersBatch plus the batched
// scatter-gather decomposition. When no engine has been prepared it
// builds a one-shard engine with the default pruning, like the
// single-query path.
func (r *Recommender) TopEventPartnersBatchStats(users []int32, n int) ([][]PairRecommendation, EngineStats, error) {
	if n <= 0 {
		return nil, EngineStats{}, fmt.Errorf("ebsn: n must be positive")
	}
	for _, u := range users {
		if int(u) < 0 || int(u) >= r.dataset.NumUsers {
			return nil, EngineStats{}, fmt.Errorf("ebsn: user %d out of range [0,%d)", u, r.dataset.NumUsers)
		}
	}
	if err := r.ensureEngine(); err != nil {
		return nil, EngineStats{}, err
	}
	vecs := make([][]float32, len(users))
	exclude := make([]int32, len(users))
	for j, u := range users {
		vecs[j] = r.model.UserVec(u)
		exclude[j] = u
	}
	res, stats, err := r.taEngine.SearchBatch(vecs, n, exclude)
	if err != nil {
		return nil, stats, err
	}
	out := make([][]PairRecommendation, len(users))
	for j, rs := range res {
		out[j] = r.basePairs(rs)
	}
	return out, stats, nil
}

// EventBatchScratch owns the buffers of TopEventsBatchScratch: the
// packed test-event matrix, the query panel, the score panel, and the
// reusable result storage. A warmed scratch makes steady-state batched
// cold-event rankings allocation-free. Not safe for concurrent use, and
// tied to the Recommender that warmed it (the packed matrix is rebuilt
// whenever the event count or dimension changes).
type EventBatchScratch struct {
	events []float32 // packed test-event rows, |X|×K
	nev, k int
	gen    *Recommender // whose rows are packed
	qs     []float32
	scores []float32
	out    []Recommendation
	res    [][]Recommendation
}

// TopEventsBatchScratch ranks the cold (test) events for every user in
// one panel pass: the users' vectors score all test events via the
// matrix-panel kernel, and each user's top n falls out of the same
// selection the single-user TopEvents runs — so results are
// bit-identical to per-user TopEvents calls, tie handling included.
// Results are indexed like users, alias sc, and are valid only until
// its next use. Unlike TopEventsBatch (worker-parallel over single-user
// calls, fresh allocations), this variant is single-goroutine and
// allocation-free once warm — the shape the serving coalescer wants.
func (r *Recommender) TopEventsBatchScratch(users []int32, n int, sc *EventBatchScratch) ([][]Recommendation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ebsn: n must be positive")
	}
	for _, u := range users {
		if int(u) < 0 || int(u) >= r.dataset.NumUsers {
			return nil, fmt.Errorf("ebsn: user %d out of range [0,%d)", u, r.dataset.NumUsers)
		}
	}
	k := r.model.K()
	nev := len(r.split.TestEvents)
	if sc.gen != r || sc.nev != nev || sc.k != k {
		// Pack the test-event rows once per (recommender, shape); the
		// model is frozen after build, so the rows cannot change under a
		// warmed scratch.
		sc.events = growF32(sc.events, nev*k)
		for i, x := range r.split.TestEvents {
			copy(sc.events[i*k:(i+1)*k], r.model.EventVec(x))
		}
		sc.gen, sc.nev, sc.k = r, nev, k
	}
	nb := len(users)
	sc.qs = growF32(sc.qs, nb*k)
	for j, u := range users {
		copy(sc.qs[j*k:(j+1)*k], r.model.UserVec(u))
	}
	sc.scores = growF32(sc.scores, nb*nev)
	vecmath.DotPanel(sc.qs, nb, sc.events, k, sc.scores)

	if n > nev {
		n = nev
	}
	if cap(sc.res) < nb {
		sc.res = make([][]Recommendation, nb)
	}
	sc.res = sc.res[:nb]
	if cap(sc.out) < nb*n {
		sc.out = make([]Recommendation, nb*n)
	}
	sc.out = sc.out[:nb*n]
	for j := 0; j < nb; j++ {
		scores := sc.scores[j*nev : (j+1)*nev]
		best := sc.out[j*n : j*n : j*n+n]
		// The same strict-> insertion selection TopEvents runs, reading
		// the panel scores instead of per-event dots: first-seen wins on
		// ties, so ordering matches the single-user path exactly.
		for i, x := range r.split.TestEvents {
			s := scores[i]
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
		sc.res[j] = best
	}
	return sc.res, nil
}

// growF32 returns buf grown to length n, reusing capacity; contents are
// unspecified.
func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}
