package ebsn

// TopEventPartnersBatchStats answers TopEventPartners for many users
// with one index traversal per batch, plus the batched scatter-gather
// decomposition: the affinity passes run as matrix panels shared across
// the batch (vecmath.DotPanel), and on a sharded engine the whole batch
// fans out to each shard once. Results are indexed like users and are
// bit-identical to per-user TopEventPartners calls — same pairs, same
// score bits, same tie order.
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
