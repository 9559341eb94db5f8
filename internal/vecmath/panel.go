package vecmath

// Matrix-panel kernel for the batched query path. DotPanel generalizes
// DotBatch from one query row to a panel of B query rows sharing one
// pass over the packed candidate block.
//
// On amd64 both micro-kernels are SSE2 assembly: the 4-query panel
// kernel (four queries against one candidate row per step) and
// DotBatch's one-query kernel (one query against four candidate rows
// per step). dotUnrolled's four independent accumulators are exactly
// the four lanes of a packed MULPS/ADDPS pipeline (identical per-lane
// IEEE rounding), and the final (s0+s1)+(s2+s3) reduction is performed
// with scalar ADDSS in that exact order before the k mod 4 tail is
// added in index order, so both kernels are bit-identical to repeated
// Dot calls. Every other architecture runs the pure-Go kernels with the
// same accumulation order; the property tests compare the two
// cell-for-cell on amd64.

// DotPanel computes out[q*rows+r] = Dot(qs[q*k:(q+1)*k], data[r*k:(r+1)*k])
// for b packed query rows against every row r of a packed row-major
// candidate block (rows = len(data)/k). The candidate block is streamed
// once per group of four queries instead of once per query, and the
// shared candidate row amortizes its loads across the four queries —
// that is where batched scoring gets its throughput win. A final group
// of two or three queries also rides the 4-query kernel, repeating its
// last query into that query's own output row (the repeat writes the
// same value to the same cell); a single leftover query takes DotBatch,
// whose one-query kernel scores four candidate rows per step. Each
// (q, r) accumulation follows dotUnrolled's exact order, so the output
// is bit-identical to b independent DotBatch calls — the
// batched-vs-sequential equivalence tests in internal/ta rely on that.
// k == 0 zeroes out. Panics on size mismatches for the same reason Dot
// does.
func DotPanel(qs []float32, b int, data []float32, k int, out []float32) {
	if b < 0 || k < 0 || len(qs) != b*k {
		panic("vecmath: DotPanel query panel size mismatch")
	}
	if k == 0 {
		clear(out)
		return
	}
	if len(data)%k != 0 {
		panic("vecmath: DotPanel data size mismatch")
	}
	rows := len(data) / k
	if len(out) != b*rows {
		panic("vecmath: DotPanel output size mismatch")
	}
	if rows == 0 {
		return
	}
	qrow := func(j int) []float32 { j = min(j, b-1); return qs[j*k : (j+1)*k : (j+1)*k] }
	orow := func(j int) []float32 { j = min(j, b-1); return out[j*rows : (j+1)*rows : (j+1)*rows] }
	q := 0
	for ; b-q >= 2; q += 4 {
		panelRows4(qrow(q), qrow(q+1), qrow(q+2), qrow(q+3), data, k,
			orow(q), orow(q+1), orow(q+2), orow(q+3))
	}
	if q < b {
		DotBatch(qrow(q), data, k, orow(q))
	}
}

// panelRows4Go is the portable 4-query micro-kernel: one pass over the
// candidate block scoring four query rows per candidate row, each (q, r)
// cell accumulated in dotUnrolled's exact order. The amd64 build
// replaces it with the SSE2 version behind panelRows4; this form stays
// compiled on every architecture and is the reference the asm is
// property-tested against.
func panelRows4Go(q0, q1, q2, q3, data []float32, k int, o0, o1, o2, o3 []float32) {
	for r := range o0 {
		d := data[r*k : r*k+k : r*k+k]
		o0[r], o1[r], o2[r], o3[r] = dotPanel4(q0, q1, q2, q3, d)
	}
}

// dotPanel4 computes four dot products of one candidate row d against
// four query rows, loading d once. Each output keeps its own four
// independent accumulators combined as (s0+s1)+(s2+s3) plus a scalar
// remainder — dotUnrolled's exact order — so every result is
// bit-identical to Dot(qi, d). Callers guarantee all five slices share
// one length.
func dotPanel4(q0, q1, q2, q3, d []float32) (r0, r1, r2, r3 float32) {
	n4 := len(d) &^ 3
	var a0, a1, a2, a3 float32
	var b0, b1, b2, b3 float32
	var c0, c1, c2, c3 float32
	var e0, e1, e2, e3 float32
	for i := 0; i < n4; i += 4 {
		y := d[i : i+4 : i+4]
		x0 := q0[i : i+4 : i+4]
		x1 := q1[i : i+4 : i+4]
		x2 := q2[i : i+4 : i+4]
		x3 := q3[i : i+4 : i+4]
		a0 += x0[0] * y[0]
		a1 += x0[1] * y[1]
		a2 += x0[2] * y[2]
		a3 += x0[3] * y[3]
		b0 += x1[0] * y[0]
		b1 += x1[1] * y[1]
		b2 += x1[2] * y[2]
		b3 += x1[3] * y[3]
		c0 += x2[0] * y[0]
		c1 += x2[1] * y[1]
		c2 += x2[2] * y[2]
		c3 += x2[3] * y[3]
		e0 += x3[0] * y[0]
		e1 += x3[1] * y[1]
		e2 += x3[2] * y[2]
		e3 += x3[3] * y[3]
	}
	r0 = (a0 + a1) + (a2 + a3)
	r1 = (b0 + b1) + (b2 + b3)
	r2 = (c0 + c1) + (c2 + c3)
	r3 = (e0 + e1) + (e2 + e3)
	for i := n4; i < len(d); i++ {
		r0 += q0[i] * d[i]
		r1 += q1[i] * d[i]
		r2 += q2[i] * d[i]
		r3 += q3[i] * d[i]
	}
	return r0, r1, r2, r3
}

// QuantizeRow and DotBatchI8 remain only because the benchmark harness
// names them (ROADMAP 1e); no query path runs them.

// QuantizeRow quantizes src into dst with a symmetric per-row scale
// (round-half-away-from-zero, clamped to [-127, 127]) and returns the
// scale s = maxabs(src)/127, so src[i] ≈ s·float32(dst[i]). An all-zero
// row quantizes to zeros with scale 0. The slices must have equal
// length; QuantizeRow panics otherwise.
func QuantizeRow(src []float32, dst []int8) float32 {
	if len(src) != len(dst) {
		panic("vecmath: QuantizeRow length mismatch")
	}
	var maxAbs float32
	for _, x := range src {
		if x < 0 {
			x = -x
		}
		if x > maxAbs {
			maxAbs = x
		}
	}
	if maxAbs == 0 {
		clear(dst)
		return 0
	}
	scale := maxAbs / 127
	inv := 127 / maxAbs
	for i, x := range src {
		v := x * inv
		var q int32
		if v >= 0 {
			q = int32(v + 0.5)
		} else {
			q = int32(v - 0.5)
		}
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return scale
}

// dotI8Unrolled is the widening int8×int8→int32 inner product of a and
// b behind DotBatchI8. Integer accumulation is exact for any
// association, so the unrolled form equals the scalar loop bit for bit;
// the sum cannot overflow int32 below ~133k dimensions. Callers
// guarantee len(a) == len(b).
func dotI8Unrolled(a, b []int8) int32 {
	n4 := len(a) &^ 3
	var s0, s1, s2, s3 int32
	for i := 0; i < n4; i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		s0 += int32(x[0]) * int32(y[0])
		s1 += int32(x[1]) * int32(y[1])
		s2 += int32(x[2]) * int32(y[2])
		s3 += int32(x[3]) * int32(y[3])
	}
	s := s0 + s1 + s2 + s3
	for i := n4; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// DotBatchI8 computes the widening int8 inner product of q with every
// row r of a packed row-major int8 matrix, out[r] = Σ q[i]·data[r*k+i]
// in int32. k == 0 zeroes out. Panics on size mismatches.
func DotBatchI8(q, data []int8, k int, out []int32) {
	if k < 0 || len(q) != k {
		panic("vecmath: DotBatchI8 query length mismatch")
	}
	if k == 0 {
		clear(out)
		return
	}
	if len(out)*k != len(data) {
		panic("vecmath: DotBatchI8 size mismatch")
	}
	for r := range out {
		out[r] = dotI8Unrolled(q, data[r*k:r*k+k:r*k+k])
	}
}
