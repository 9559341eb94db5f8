package ebsn

import "fmt"

// EnableQuantizedQueries packs int8 mirrors of the joint candidate
// space and routes subsequent joint queries — single, batched,
// constrained and the base tier of live ones — through the quantized
// search path: approximate int8 affinity passes over int8 mirrors of
// the event and partner rows, with the top n·4 survivors re-ranked
// against the exact float32 rows (see ta.PackQuantized). The mirrors are
// memory added beside those rows, not saved, and the mode measured
// slower than exact wherever it was timed. The quantized path is
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

// TopEventPartnersBatchStats answers TopEventPartners for many users
// with one index traversal per batch, plus the batched scatter-gather
// decomposition: the affinity passes run as matrix panels shared across
// the batch (vecmath.DotPanel), and on a sharded engine the whole batch
// fans out to each shard once. Results are indexed like users. On the
// exact (non-quantized) path the results are bit-identical to per-user
// TopEventPartners calls — same pairs, same score bits, same tie order.
// When no engine has been prepared it builds a one-shard engine with the
// default pruning, like the single-query path.
func (r *Recommender) TopEventPartnersBatchStats(users []int32, n int) ([][]PairRecommendation, EngineStats, error) {
	if err := r.checkUsers(n, users...); err != nil {
		return nil, EngineStats{}, err
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
