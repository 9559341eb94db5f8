package vecmath

import (
	"math"
)

// Dot returns the inner product of a and b. The slices must have equal
// length; Dot panics otherwise, because a silent truncation would corrupt
// model scores.
//
// The loop is 4-way unrolled with independent accumulators so the four
// multiply-adds per iteration have no dependency chain between them, and
// the re-slicing before the loop lets the compiler hoist every bounds
// check out of it. DotBatch uses the exact same accumulation order, so
// the two produce bit-identical results on the same inputs — the scratch
// -pooling equivalence tests in internal/ta rely on that.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	return dotUnrolled(a, b)
}

// dotUnrolled is the shared kernel behind Dot and DotBatch. Callers
// guarantee len(a) == len(b).
func dotUnrolled(a, b []float32) float32 {
	n4 := len(a) &^ 3
	var s0, s1, s2, s3 float32
	for i := 0; i < n4; i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
	}
	s := (s0 + s1) + (s2 + s3)
	for i := n4; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// DotBatch computes out[r] = Dot(q, data[r*k:(r+1)*k]) for every row r of
// a packed row-major matrix. One call replaces len(out) Dot calls over
// pointer-chased [][]float32 rows with a single pass over contiguous
// memory — the layout the TA query hot path streams on every cache miss.
// On amd64 an SSE2 kernel scores four rows per step, loading each query
// chunk once for the four; it keeps dotUnrolled's accumulation order, so
// every output is still bit-identical to Dot (see panel.go).
// k == 0 zeroes out. Panics on size mismatches for the same reason Dot
// does.
func DotBatch(q, data []float32, k int, out []float32) {
	if k < 0 || len(q) != k {
		panic("vecmath: DotBatch query length mismatch")
	}
	if k == 0 {
		clear(out)
		return
	}
	if len(out)*k != len(data) {
		panic("vecmath: DotBatch size mismatch")
	}
	batchRows(q, data, k, out)
}

// batchRowsGo is the portable one-query kernel behind DotBatch. The
// amd64 build replaces it with the SSE2 version behind batchRows; this
// form stays compiled on every architecture and is the reference the
// asm is property-tested against.
func batchRowsGo(q, data []float32, k int, out []float32) {
	for r := range out {
		out[r] = dotUnrolled(q, data[r*k:r*k+k:r*k+k])
	}
}

// Axpy computes dst += alpha*src element-wise. Unrolled like dotUnrolled;
// element updates are independent, so the result is bit-identical to the
// scalar loop.
func Axpy(alpha float32, src, dst []float32) {
	if len(src) != len(dst) {
		panic("vecmath: Axpy length mismatch")
	}
	n4 := len(src) &^ 3
	for i := 0; i < n4; i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] += alpha * s[0]
		d[1] += alpha * s[1]
		d[2] += alpha * s[2]
		d[3] += alpha * s[3]
	}
	for i := n4; i < len(src); i++ {
		dst[i] += alpha * src[i]
	}
}

// ScaleInto computes dst = alpha*src element-wise, overwriting dst.
// The SGD step uses it to seed the endpoint error accumulators.
func ScaleInto(alpha float32, src, dst []float32) {
	if len(src) != len(dst) {
		panic("vecmath: ScaleInto length mismatch")
	}
	n4 := len(src) &^ 3
	for i := 0; i < n4; i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] = alpha * s[0]
		d[1] = alpha * s[1]
		d[2] = alpha * s[2]
		d[3] = alpha * s[3]
	}
	for i := n4; i < len(src); i++ {
		dst[i] = alpha * src[i]
	}
}

// AxpyTwo applies one fused noise-node update: for every f,
//
//	errI[f] -= s*vk[f];  vk[f] -= s*vi[f]
//
// using vk's pre-update value in the errI accumulation, exactly as the
// two scalar statements would. One pass touches all three vectors while
// they are hot in cache — the dominant inner loop of Model.step, where
// it replaces a scalar 2-op loop. Element updates are independent across
// f (vi, vk and errI never alias in the trainer: the positive endpoint
// and observed neighbors are excluded as noise), so the unrolled form is
// bit-identical to the scalar one.
func AxpyTwo(s float32, vi, vk, errI []float32) {
	if len(vi) != len(vk) || len(vi) != len(errI) {
		panic("vecmath: AxpyTwo length mismatch")
	}
	n4 := len(vi) &^ 3
	for f := 0; f < n4; f += 4 {
		a := vi[f : f+4 : f+4]
		k := vk[f : f+4 : f+4]
		e := errI[f : f+4 : f+4]
		e[0] -= s * k[0]
		k[0] -= s * a[0]
		e[1] -= s * k[1]
		k[1] -= s * a[1]
		e[2] -= s * k[2]
		k[2] -= s * a[2]
		e[3] -= s * k[3]
		k[3] -= s * a[3]
	}
	for f := n4; f < len(vi); f++ {
		errI[f] -= s * vk[f]
		vk[f] -= s * vi[f]
	}
}

// AxpyClampNonNeg computes dst += alpha*src followed by the rectifier
// max(·, 0) in one pass — the fused form of the NonNegative projection
// applied when folding the accumulated endpoint error back into an
// embedding. Bit-identical to Axpy followed by ClampNonNeg.
func AxpyClampNonNeg(alpha float32, src, dst []float32) {
	if len(src) != len(dst) {
		panic("vecmath: AxpyClampNonNeg length mismatch")
	}
	n4 := len(src) &^ 3
	for i := 0; i < n4; i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] += alpha * s[0]
		d[1] += alpha * s[1]
		d[2] += alpha * s[2]
		d[3] += alpha * s[3]
		if d[0] < 0 {
			d[0] = 0
		}
		if d[1] < 0 {
			d[1] = 0
		}
		if d[2] < 0 {
			d[2] = 0
		}
		if d[3] < 0 {
			d[3] = 0
		}
	}
	for i := n4; i < len(src); i++ {
		dst[i] += alpha * src[i]
		if dst[i] < 0 {
			dst[i] = 0
		}
	}
}

// Scale multiplies every element of v by alpha in place.
func Scale(alpha float32, v []float32) {
	for i := range v {
		v[i] *= alpha
	}
}

// SumSq returns the sum of squared elements of v.
func SumSq(v []float32) float32 {
	var s float32
	for _, x := range v {
		s += x * x
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float32) float32 {
	return float32(math.Sqrt(float64(SumSq(v))))
}

// ClampNonNeg applies the rectifier max(x, 0) to every element of v in
// place. GEM projects embeddings onto the non-negative orthant after each
// gradient step; the non-negativity is also what makes the adaptive
// sampler's dimension distribution p(f|v) ∝ v_f·σ_f a valid distribution.
func ClampNonNeg(v []float32) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// Sigmoid returns 1/(1+exp(-x)) computed in float64 internally for
// stability at large |x|.
func Sigmoid(x float32) float32 {
	// For very negative x, exp(-x) overflows float32 math; float64 is safe
	// for the whole float32 input range.
	return float32(1.0 / (1.0 + math.Exp(-float64(x))))
}

// sigmoid lookup table covering [-sigTableRange, sigTableRange]. Outside
// the range the function is within 5e-5 of 0 or 1, so clamping is fine
// for SGD purposes. word2vec and LINE use the same trick.
const (
	sigTableSize  = 2048
	sigTableRange = 10.0
	// sigTableScale converts an input offset into a table position; it is
	// exactly representable in float32 (102.4 = 512/5), so the index math
	// stays precise without a float64 round-trip.
	sigTableScale = float32(sigTableSize) / (2 * sigTableRange)
)

var sigTable [sigTableSize + 1]float32

func init() {
	for i := 0; i <= sigTableSize; i++ {
		x := -sigTableRange + 2*sigTableRange*float64(i)/float64(sigTableSize)
		sigTable[i] = float32(1.0 / (1.0 + math.Exp(-x)))
	}
}

// FastSigmoid returns a table-interpolated sigmoid accurate to better
// than 2e-4 on [-10, 10] (about 2e-6 away from the clamp edges) and
// clamped to {~0, ~1} outside. Used in SGD inner loops where exact
// transcendental accuracy is wasted effort. The interpolation runs
// entirely in float32: the table position is a product by an exactly
// representable scale, so no precision is bought by the former float64
// round-trip, and dropping it removes two conversions from the hottest
// scalar call in training.
func FastSigmoid(x float32) float32 {
	if x <= -sigTableRange {
		return sigTable[0]
	}
	if x >= sigTableRange {
		return sigTable[sigTableSize]
	}
	pos := (x + sigTableRange) * sigTableScale
	i := int(pos)
	if i >= sigTableSize {
		// x just below the range can round up to the table's end in
		// float32; the clamp value is exact there.
		return sigTable[sigTableSize]
	}
	frac := pos - float32(i)
	return sigTable[i] + frac*(sigTable[i+1]-sigTable[i])
}

// DotSigmoidGrad returns alpha·σ(a·b), the repulsive gradient magnitude
// for a sampled noise pair, fused so the hot path issues one call (and
// one bounds-checked length test) instead of three. Bit-identical to
// alpha*FastSigmoid(Dot(a, b)).
func DotSigmoidGrad(alpha float32, a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: DotSigmoidGrad length mismatch")
	}
	return alpha * FastSigmoid(dotUnrolled(a, b))
}

// DotSigmoidGradPos returns alpha·(1−σ(a·b)), the attractive gradient
// magnitude for a positive edge. Bit-identical to
// alpha*(1-FastSigmoid(Dot(a, b))).
func DotSigmoidGradPos(alpha float32, a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: DotSigmoidGradPos length mismatch")
	}
	return alpha * (1 - FastSigmoid(dotUnrolled(a, b)))
}

// ColumnMeanVar computes per-dimension mean and variance across a row-major
// matrix of n rows by k columns stored contiguously in data (len = n*k).
// The outputs mean and variance must each have length k. Used by the
// adaptive sampler's dimension distribution, which weights dimensions by
// their value spread across nodes.
func ColumnMeanVar(data []float32, n, k int, mean, variance []float32) {
	if n*k != len(data) {
		panic("vecmath: ColumnMeanVar size mismatch")
	}
	if len(mean) != k || len(variance) != k {
		panic("vecmath: ColumnMeanVar output size mismatch")
	}
	for f := 0; f < k; f++ {
		mean[f] = 0
		variance[f] = 0
	}
	if n == 0 {
		return
	}
	for r := 0; r < n; r++ {
		row := data[r*k : (r+1)*k]
		for f, x := range row {
			mean[f] += x
		}
	}
	inv := 1 / float32(n)
	for f := 0; f < k; f++ {
		mean[f] *= inv
	}
	for r := 0; r < n; r++ {
		row := data[r*k : (r+1)*k]
		for f, x := range row {
			d := x - mean[f]
			variance[f] += d * d
		}
	}
	for f := 0; f < k; f++ {
		variance[f] *= inv
	}
}

// HasNaN reports whether v contains a NaN or infinity. Training code uses
// it as a cheap guard in tests and debug assertions.
func HasNaN(v []float32) bool {
	for _, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
	}
	return false
}
