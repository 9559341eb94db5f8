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
		{"batchI8", func() { DotBatchI8(make([]int8, 3), make([]int8, 8), 4, make([]int32, 2)) }},
		{"batchI8out", func() { DotBatchI8(make([]int8, 4), make([]int8, 8), 4, make([]int32, 3)) }},
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

// TestDotI8MatchesScalarAllRemainders checks DotBatchI8's widening int8
// kernel against the scalar int32 reference for every k remainder
// 0..67 and ragged row counts — integer accumulation is exact, so the
// comparison is ==.
func TestDotI8MatchesScalarAllRemainders(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for k := 0; k <= 67; k++ {
		for trial := 0; trial < 4; trial++ {
			rows := 1 + r.Intn(9)
			q := randQuantSlice(r, k)
			data := randQuantSlice(r, rows*k)
			out := make([]int32, rows)
			for i := range out {
				out[i] = -1 // k == 0 must zero the output
			}
			DotBatchI8(q, data, k, out)
			for row := range out {
				if want := dotI8Scalar(q, data[row*k:(row+1)*k]); out[row] != want {
					t.Fatalf("k=%d trial=%d row=%d: DotBatchI8=%d scalar=%d", k, trial, row, out[row], want)
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
// micro-kernel (SSE2 assembly on amd64) cell-for-cell against the
// portable Go implementation across ragged k and row counts. The
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
