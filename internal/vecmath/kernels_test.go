package vecmath

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// dotScalar is the straight-line reference the unrolled kernels are
// checked against.
func dotScalar(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func randSlice(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

// TestDotMatchesScalarAllRemainders sweeps every length 0..67 so each
// unroll remainder (len mod 4) and several full-block counts are hit.
func TestDotMatchesScalarAllRemainders(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			a := randSlice(r, n)
			b := randSlice(r, n)
			got := Dot(a, b)
			want := dotScalar(a, b)
			if math.Abs(float64(got-want)) > 1e-5*(1+math.Abs(float64(want))) {
				t.Fatalf("len=%d trial=%d: Dot=%v scalar=%v", n, trial, got, want)
			}
		}
	}
}

// TestDotBatchMatchesScalarAllRemainders checks DotBatch against the
// scalar reference for every k 0..67, and that it is bit-identical to
// Dot (the ta scratch-pool equivalence tests depend on that).
func TestDotBatchMatchesScalarAllRemainders(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for k := 0; k <= 67; k++ {
		const rows = 9
		q := randSlice(r, k)
		data := randSlice(r, rows*k)
		out := make([]float32, rows)
		// Poison the output to catch rows the kernel skips.
		for i := range out {
			out[i] = float32(math.NaN())
		}
		DotBatch(q, data, k, out)
		for row := 0; row < rows; row++ {
			rowv := data[row*k : (row+1)*k]
			want := dotScalar(q, rowv)
			if math.Abs(float64(out[row]-want)) > 1e-5*(1+math.Abs(float64(want))) {
				t.Fatalf("k=%d row=%d: DotBatch=%v scalar=%v", k, row, out[row], want)
			}
			if out[row] != Dot(q, rowv) {
				t.Fatalf("k=%d row=%d: DotBatch=%v not bit-identical to Dot=%v", k, row, out[row], Dot(q, rowv))
			}
		}
	}
}

func TestDotBatchPanicsOnMismatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"query", func() { DotBatch(make([]float32, 3), make([]float32, 8), 4, make([]float32, 2)) }},
		{"data", func() { DotBatch(make([]float32, 4), make([]float32, 9), 4, make([]float32, 2)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestDotBatchZeroK(t *testing.T) {
	out := []float32{3, 4}
	DotBatch(nil, nil, 0, out)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("k=0 should zero the output, got %v", out)
	}
}

func BenchmarkDot(b *testing.B) {
	r := rand.New(rand.NewSource(44))
	for _, k := range []int{16, 60, 61} {
		x := randSlice(r, k)
		y := randSlice(r, k)
		b.Run(benchName("k", k), func(b *testing.B) {
			b.SetBytes(int64(8 * k))
			var acc float32
			for i := 0; i < b.N; i++ {
				acc += Dot(x, y)
			}
			sinkF32 = acc
		})
	}
}

// BenchmarkDotBatch scores one query against a packed candidate block.
// Besides the 4096-row blocks, k = 60 × rows 600 and 11 890 are the
// event and partner passes of one bench-12k query lane. CI greps its
// output for "0 allocs/op".
func BenchmarkDotBatch(b *testing.B) {
	r := rand.New(rand.NewSource(45))
	for _, c := range []struct{ k, rows int }{{16, 4096}, {60, 4096}, {60, 600}, {60, 11890}} {
		k, rows := c.k, c.rows
		q := randSlice(r, k)
		data := randSlice(r, rows*k)
		out := make([]float32, rows)
		b.Run(benchName("k", k)+"/"+benchName("rows", rows), func(b *testing.B) {
			b.SetBytes(int64(8 * k * rows))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				DotBatch(q, data, k, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			sinkF32 = out[0]
		})
	}
}

// BenchmarkDotRows measures the pointer-chasing baseline DotBatch
// replaces: the same flops issued as one Dot per [][]float32 row.
func BenchmarkDotRows(b *testing.B) {
	r := rand.New(rand.NewSource(46))
	const rows = 4096
	const k = 60
	q := randSlice(r, k)
	mat := make([][]float32, rows)
	for i := range mat {
		mat[i] = randSlice(r, k)
	}
	out := make([]float32, rows)
	b.SetBytes(int64(8 * k * rows))
	for i := 0; i < b.N; i++ {
		for row := range mat {
			out[row] = Dot(q, mat[row])
		}
	}
	sinkF32 = out[0]
}

// --- Fused training kernels: bit-identical to their scalar forms. ---
// Single-thread training determinism across the kernel swap rests on
// these equalities being exact, not approximate, so every comparison
// below is ==, never a tolerance.

// axpyTwoScalar is the pre-fusion inner loop of Model.step's noise
// update, kept as the reference the fused kernel must match bit for bit.
func axpyTwoScalar(s float32, vi, vk, errI []float32) {
	for f := range errI {
		errI[f] -= s * vk[f]
		vk[f] -= s * vi[f]
	}
}

func TestAxpyTwoBitIdenticalAllRemainders(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			vi := randSlice(r, n)
			vk1 := randSlice(r, n)
			err1 := randSlice(r, n)
			vk2 := append([]float32(nil), vk1...)
			err2 := append([]float32(nil), err1...)
			s := float32(r.NormFloat64())
			AxpyTwo(s, vi, vk1, err1)
			axpyTwoScalar(s, vi, vk2, err2)
			for f := 0; f < n; f++ {
				if vk1[f] != vk2[f] || err1[f] != err2[f] {
					t.Fatalf("n=%d f=%d: fused (vk=%v err=%v) != scalar (vk=%v err=%v)",
						n, f, vk1[f], err1[f], vk2[f], err2[f])
				}
			}
		}
	}
}

func TestAxpyBitIdenticalAllRemainders(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for n := 0; n <= 67; n++ {
		src := randSlice(r, n)
		dst1 := randSlice(r, n)
		dst2 := append([]float32(nil), dst1...)
		alpha := float32(r.NormFloat64())
		Axpy(alpha, src, dst1)
		for i := range dst2 {
			dst2[i] += alpha * src[i]
		}
		for i := 0; i < n; i++ {
			if dst1[i] != dst2[i] {
				t.Fatalf("n=%d i=%d: %v != %v", n, i, dst1[i], dst2[i])
			}
		}
	}
}

func TestScaleIntoBitIdenticalAllRemainders(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for n := 0; n <= 67; n++ {
		src := randSlice(r, n)
		dst := randSlice(r, n) // poison: every element must be overwritten
		alpha := float32(r.NormFloat64())
		ScaleInto(alpha, src, dst)
		for i := 0; i < n; i++ {
			if want := alpha * src[i]; dst[i] != want {
				t.Fatalf("n=%d i=%d: %v != %v", n, i, dst[i], want)
			}
		}
	}
}

func TestAxpyClampNonNegBitIdenticalAllRemainders(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			src := randSlice(r, n)
			dst1 := randSlice(r, n)
			dst2 := append([]float32(nil), dst1...)
			alpha := float32(r.NormFloat64())
			AxpyClampNonNeg(alpha, src, dst1)
			Axpy(alpha, src, dst2)
			ClampNonNeg(dst2)
			for i := 0; i < n; i++ {
				if dst1[i] != dst2[i] {
					t.Fatalf("n=%d i=%d: fused %v != unfused %v", n, i, dst1[i], dst2[i])
				}
			}
		}
	}
}

func TestDotSigmoidGradBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for n := 0; n <= 67; n++ {
		a := randSlice(r, n)
		b := randSlice(r, n)
		alpha := float32(math.Abs(r.NormFloat64()))
		if got, want := DotSigmoidGrad(alpha, a, b), alpha*FastSigmoid(Dot(a, b)); got != want {
			t.Fatalf("n=%d: DotSigmoidGrad=%v, composition=%v", n, got, want)
		}
		if got, want := DotSigmoidGradPos(alpha, a, b), alpha*(1-FastSigmoid(Dot(a, b))); got != want {
			t.Fatalf("n=%d: DotSigmoidGradPos=%v, composition=%v", n, got, want)
		}
	}
}

func TestFusedKernelsPanicOnMismatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"AxpyTwo", func() { AxpyTwo(1, make([]float32, 3), make([]float32, 4), make([]float32, 4)) }},
		{"AxpyTwoErr", func() { AxpyTwo(1, make([]float32, 4), make([]float32, 4), make([]float32, 3)) }},
		{"ScaleInto", func() { ScaleInto(1, make([]float32, 3), make([]float32, 4)) }},
		{"AxpyClampNonNeg", func() { AxpyClampNonNeg(1, make([]float32, 3), make([]float32, 4)) }},
		{"DotSigmoidGrad", func() { DotSigmoidGrad(1, make([]float32, 3), make([]float32, 4)) }},
		{"DotSigmoidGradPos", func() { DotSigmoidGradPos(1, make([]float32, 3), make([]float32, 4)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func BenchmarkAxpyTwo(b *testing.B) {
	r := rand.New(rand.NewSource(56))
	for _, k := range []int{16, 60, 61} {
		vi := randSlice(r, k)
		vk := randSlice(r, k)
		errI := randSlice(r, k)
		b.Run(benchName("k", k), func(b *testing.B) {
			b.SetBytes(int64(12 * k))
			for i := 0; i < b.N; i++ {
				AxpyTwo(0.001, vi, vk, errI)
			}
			sinkF32 = errI[0]
		})
	}
}

// BenchmarkAxpyTwoScalar is the pre-fusion baseline for AxpyTwo.
func BenchmarkAxpyTwoScalar(b *testing.B) {
	r := rand.New(rand.NewSource(56))
	const k = 60
	vi := randSlice(r, k)
	vk := randSlice(r, k)
	errI := randSlice(r, k)
	b.SetBytes(int64(12 * k))
	for i := 0; i < b.N; i++ {
		axpyTwoScalar(0.001, vi, vk, errI)
	}
	sinkF32 = errI[0]
}

func BenchmarkAxpyClampNonNeg(b *testing.B) {
	r := rand.New(rand.NewSource(57))
	const k = 60
	src := randSlice(r, k)
	dst := randSlice(r, k)
	b.SetBytes(int64(8 * k))
	for i := 0; i < b.N; i++ {
		AxpyClampNonNeg(0.001, src, dst)
	}
	sinkF32 = dst[0]
}

func BenchmarkDotSigmoidGrad(b *testing.B) {
	r := rand.New(rand.NewSource(58))
	const k = 60
	x := randSlice(r, k)
	y := randSlice(r, k)
	b.SetBytes(int64(8 * k))
	var acc float32
	for i := 0; i < b.N; i++ {
		acc += DotSigmoidGrad(0.05, x, y)
	}
	sinkF32 = acc
}

var sinkF32 float32

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}
