package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// randQuantSlice returns n int8 values spanning the full quantized range.
func randQuantSlice(r *rand.Rand, n int) []int8 {
	v := make([]int8, n)
	for i := range v {
		v[i] = int8(r.Intn(255) - 127)
	}
	return v
}

// dotI8Scalar is the straight-line reference for the int8 kernels.
func dotI8Scalar(a, b []int8) int32 {
	var s int32
	for i := range a {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// TestDotPanelBitIdenticalToDot sweeps ragged shapes — every k remainder
// 0..67, batch sizes around the 4-query micro-kernel boundary, and odd
// row counts — and requires every output bit-identical to the
// corresponding Dot call. The batched ta query path inherits its
// batched-vs-sequential bit-identity from this property.
func TestDotPanelBitIdenticalToDot(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for k := 0; k <= 67; k++ {
		for _, b := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9} {
			rows := 1 + r.Intn(9)
			qs := randSlice(r, b*k)
			data := randSlice(r, rows*k)
			out := make([]float32, b*rows)
			for i := range out {
				out[i] = float32(math.NaN()) // poison: every cell must be written
			}
			if k == 0 {
				DotPanel(qs, b, nil, 0, out)
			} else {
				DotPanel(qs, b, data, k, out)
			}
			for q := 0; q < b; q++ {
				qv := qs[q*k : (q+1)*k]
				for row := 0; row < rows; row++ {
					var want float32
					if k > 0 {
						want = Dot(qv, data[row*k:(row+1)*k])
					}
					if got := out[q*rows+row]; got != want && !(k == 0 && got == 0) {
						t.Fatalf("k=%d b=%d q=%d row=%d: DotPanel=%v not bit-identical to Dot=%v",
							k, b, q, row, got, want)
					}
				}
			}
		}
	}
}

func TestDotPanelPanicsOnMismatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"panel", func() { DotPanel(make([]float32, 7), 2, make([]float32, 8), 4, make([]float32, 4)) }},
		{"data", func() { DotPanel(make([]float32, 8), 2, make([]float32, 9), 4, make([]float32, 4)) }},
		{"out", func() { DotPanel(make([]float32, 8), 2, make([]float32, 8), 4, make([]float32, 3)) }},
		{"panelI8", func() { DotPanelI8(make([]int8, 7), 2, make([]int8, 8), 4, make([]int32, 4)) }},
		{"dataI8", func() { DotPanelI8(make([]int8, 8), 2, make([]int8, 9), 4, make([]int32, 4)) }},
		{"outI8", func() { DotPanelI8(make([]int8, 8), 2, make([]int8, 8), 4, make([]int32, 3)) }},
		{"batchI8", func() { DotBatchI8(make([]int8, 3), make([]int8, 8), 4, make([]int32, 2)) }},
		{"dotI8", func() { DotI8(make([]int8, 3), make([]int8, 4)) }},
		{"quantize", func() { QuantizeRow(make([]float32, 3), make([]int8, 4)) }},
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

// TestDotI8MatchesScalarAllRemainders checks the widening int8 kernel
// against the scalar int32 reference — integer accumulation is exact,
// so the comparison is ==.
func TestDotI8MatchesScalarAllRemainders(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			a := randQuantSlice(r, n)
			b := randQuantSlice(r, n)
			if got, want := DotI8(a, b), dotI8Scalar(a, b); got != want {
				t.Fatalf("n=%d trial=%d: DotI8=%d scalar=%d", n, trial, got, want)
			}
		}
	}
}

// TestDotPanelI8MatchesScalar checks the int8 panel and batch kernels
// cell-by-cell against the scalar reference across ragged shapes.
func TestDotPanelI8MatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for k := 1; k <= 67; k++ {
		for _, b := range []int{1, 3, 4, 6, 8, 9} {
			rows := 1 + r.Intn(9)
			qs := randQuantSlice(r, b*k)
			data := randQuantSlice(r, rows*k)
			out := make([]int32, b*rows)
			DotPanelI8(qs, b, data, k, out)
			batchOut := make([]int32, rows)
			for q := 0; q < b; q++ {
				qv := qs[q*k : (q+1)*k]
				DotBatchI8(qv, data, k, batchOut)
				for row := 0; row < rows; row++ {
					want := dotI8Scalar(qv, data[row*k:(row+1)*k])
					if out[q*rows+row] != want {
						t.Fatalf("k=%d b=%d q=%d row=%d: DotPanelI8=%d scalar=%d",
							k, b, q, row, out[q*rows+row], want)
					}
					if batchOut[row] != want {
						t.Fatalf("k=%d b=%d q=%d row=%d: DotBatchI8=%d scalar=%d",
							k, b, q, row, batchOut[row], want)
					}
				}
			}
		}
	}
}

// TestQuantizeRowRoundTrip checks the per-row scale contract: every
// dequantized element is within scale/2 of the original, the quantized
// range is [-127, 127], and an all-zero row quantizes to zeros with
// scale 0.
func TestQuantizeRowRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	for n := 0; n <= 67; n++ {
		src := randSlice(r, n)
		dst := make([]int8, n)
		scale := QuantizeRow(src, dst)
		for i := range src {
			if dst[i] < -127 || dst[i] > 127 {
				t.Fatalf("n=%d i=%d: quantized value %d out of range", n, i, dst[i])
			}
			back := scale * float32(dst[i])
			if math.Abs(float64(back-src[i])) > float64(scale)/2+1e-7 {
				t.Fatalf("n=%d i=%d: dequantized %v too far from %v (scale %v)", n, i, back, src[i], scale)
			}
		}
	}
	zeros := make([]float32, 8)
	dst := []int8{1, 2, 3, 4, 5, 6, 7, 8}
	if scale := QuantizeRow(zeros, dst); scale != 0 {
		t.Fatalf("all-zero row: scale=%v, want 0", scale)
	}
	for i, q := range dst {
		if q != 0 {
			t.Fatalf("all-zero row: dst[%d]=%d, want 0", i, q)
		}
	}
}

// TestPanelMicroKernelMatchesPortable compares the dispatched 4-query
// micro-kernels (SSE2 assembly on amd64) cell-for-cell against the
// portable Go implementations across ragged k and row counts. The
// float comparison is bit-exact — the assembly must preserve
// dotUnrolled's accumulation order, not merely approximate it.
func TestPanelMicroKernelMatchesPortable(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for k := 1; k <= 67; k++ {
		rows := 1 + r.Intn(7)
		q0, q1, q2, q3 := randSlice(r, k), randSlice(r, k), randSlice(r, k), randSlice(r, k)
		data := randSlice(r, rows*k)
		got := make([][]float32, 4)
		want := make([][]float32, 4)
		for j := range got {
			got[j] = make([]float32, rows)
			want[j] = make([]float32, rows)
		}
		panelRows4(q0, q1, q2, q3, data, k, got[0], got[1], got[2], got[3])
		panelRows4Go(q0, q1, q2, q3, data, k, want[0], want[1], want[2], want[3])
		for j := 0; j < 4; j++ {
			for row := 0; row < rows; row++ {
				if got[j][row] != want[j][row] {
					t.Fatalf("k=%d q=%d row=%d: kernel=%v portable=%v", k, j, row, got[j][row], want[j][row])
				}
			}
		}
		i0, i1, i2, i3 := randQuantSlice(r, k), randQuantSlice(r, k), randQuantSlice(r, k), randQuantSlice(r, k)
		idata := randQuantSlice(r, rows*k)
		igot := make([][]int32, 4)
		iwant := make([][]int32, 4)
		for j := range igot {
			igot[j] = make([]int32, rows)
			iwant[j] = make([]int32, rows)
		}
		panelRowsI8(i0, i1, i2, i3, idata, k, igot[0], igot[1], igot[2], igot[3])
		panelRowsI8Go(i0, i1, i2, i3, idata, k, iwant[0], iwant[1], iwant[2], iwant[3])
		for j := 0; j < 4; j++ {
			for row := 0; row < rows; row++ {
				if igot[j][row] != iwant[j][row] {
					t.Fatalf("int8 k=%d q=%d row=%d: kernel=%d portable=%d", k, j, row, igot[j][row], iwant[j][row])
				}
			}
		}
	}
}

// BenchmarkDotPanel streams a 4096-row candidate block for panels of
// 1–10 queries — the batched-query hot loop. b = 2 and 3 ride the
// 4-query kernel, b = 10 is two full groups plus that tail (a feed of
// ten events). CI greps its output for "0 allocs/op".
func BenchmarkDotPanel(b *testing.B) {
	r := rand.New(rand.NewSource(65))
	const rows = 4096
	const k = 60
	for _, nq := range []int{1, 2, 3, 4, 8, 10} {
		qs := randSlice(r, nq*k)
		data := randSlice(r, rows*k)
		out := make([]float32, nq*rows)
		b.Run(benchName("b", nq), func(b *testing.B) {
			b.SetBytes(int64(4 * k * rows * (nq + 1)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				DotPanel(qs, nq, data, k, out)
			}
			sinkF32 = out[0]
		})
	}
}

// BenchmarkDotPanelI8 is the quantized counterpart of BenchmarkDotPanel:
// same shape, a quarter of the candidate memory traffic.
func BenchmarkDotPanelI8(b *testing.B) {
	r := rand.New(rand.NewSource(66))
	const rows = 4096
	const k = 60
	for _, nq := range []int{1, 4, 8} {
		qs := randQuantSlice(r, nq*k)
		data := randQuantSlice(r, rows*k)
		out := make([]int32, nq*rows)
		b.Run(benchName("b", nq), func(b *testing.B) {
			b.SetBytes(int64(k * rows * (nq + 1)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				DotPanelI8(qs, nq, data, k, out)
			}
			sinkI32 = out[0]
		})
	}
}

var sinkI32 int32
