// Package vecmath provides the dense float32 vector kernels used by the
// embedding models. Everything here is hot-path code: the functions avoid
// allocation, take pre-sized slices, and are written so the compiler can
// eliminate bounds checks in the inner loops. On amd64 the two query
// scoring kernels, [DotBatch] (one query, four candidate rows per step)
// and [DotPanel] (four queries, one candidate row per step), are
// baseline-SSE2 assembly; every other architecture runs their pure-Go
// forms.
//
// [Dot], [DotBatch] and [DotPanel] share one accumulation order, so
// single-vector and batched scoring produce bit-identical results on
// every architecture — the scratch-pooling and batched-vs-sequential
// equivalence tests in internal/ta rely on that. The fused
// training kernels ([DotSigmoidGrad], [AxpyTwo]) collapse the SGD inner
// loop's loads and stores; see the function comments for the exact
// contracts (length equality is panicked on, never truncated, because a
// silent truncation would corrupt model scores).
package vecmath
