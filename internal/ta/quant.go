package ta

// Quantized query path: the affinity passes run over the int8 mirrors
// built by PackQuantized (a quarter of the float32 memory traffic), the
// bound-heap walk (FastIndex.walk) collects the top n·quantOverfetch
// survivors under the approximate scores, and the survivors are
// re-ranked against the exact float32 rows. The walk is exact *with
// respect to the approximate scores* — the partner bounds are built from
// the same approximate affinities they bound — so the only error source
// is quantization displacing a true top-n pair below the survivor cut,
// which the recall@10 ≥ 0.99 CI gate bounds empirically.

// quantOverfetch is how many times n the approximate walk keeps for the
// exact re-rank.
const quantOverfetch = 4

// scaleWidened reconstructs approximate affinities from widened integer
// dots: dst[i] = (qscale·scales[i])·float32(v[i]). Every quantized path
// — single-query, batched, engine prepass — shares this helper so their
// approximate scores are bit-identical to each other.
func scaleWidened(qscale float32, scales []float32, v []int32, dst []float32) {
	for i := range dst {
		dst[i] = (qscale * scales[i]) * float32(v[i])
	}
}
