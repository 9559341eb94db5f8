package vecmath

import (
	"encoding/binary"
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
		for _, b := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
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

// sameBits reports whether two kernel outputs are the same float32 bit
// pattern. Two NaNs count as equal: which payload an operation with
// two NaN operands propagates depends on operand order, not rounding.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// specialSlice returns n values mixing normal draws with the IEEE edge
// cases a packed lane must round exactly like its scalar twin: ±0,
// subnormals, ±Inf, NaN and magnitudes whose products overflow to Inf.
func specialSlice(r *rand.Rand, n int) []float32 {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff), math.SmallestNonzeroFloat32 * 3,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		3e38, -2e38, 1e-20, -1e-25,
	}
	v := make([]float32, n)
	for i := range v {
		if r.Intn(3) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		} else {
			v[i] = float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3)))
		}
	}
	return v
}

// offsetCopy copies v into a fresh buffer starting off floats in, so the
// kernel's loads see every 16-byte misalignment.
func offsetCopy(v []float32, off int) []float32 {
	buf := make([]float32, off+len(v)+3)
	return append(buf[:off], v...)[off : off+len(v) : off+len(v)]
}

// checkDotBatch runs the dispatched one-query kernel on q against data
// and requires every cell to match both the portable kernel and Dot bit
// for bit, and the cell past the output to stay untouched.
func checkDotBatch(t *testing.T, q, data []float32, k int, desc string) {
	t.Helper()
	rows := len(data) / k
	got := make([]float32, rows+1)
	for i := range got {
		got[i] = -7 // sentinel: every cell must be written, none past the end
	}
	want := make([]float32, rows)
	batchRows(q, data, k, got[:rows])
	batchRowsGo(q, data, k, want)
	for row := range want {
		if !sameBits(got[row], want[row]) {
			t.Fatalf("%s k=%d rows=%d row=%d: kernel=%v (%#x) portable=%v (%#x)", desc, k, rows, row,
				got[row], math.Float32bits(got[row]), want[row], math.Float32bits(want[row]))
		}
		if d := Dot(q, data[row*k:(row+1)*k]); !sameBits(got[row], d) {
			t.Fatalf("%s k=%d rows=%d row=%d: kernel=%v not bit-identical to Dot=%v", desc, k, rows, row, got[row], d)
		}
	}
	if got[rows] != -7 {
		t.Fatalf("%s k=%d rows=%d: kernel wrote past the output (%v)", desc, k, rows, got[rows])
	}
}

// TestDotBatchKernelMatchesPortable compares DotBatch's dispatched
// one-query kernel (SSE2 assembly on amd64) cell-for-cell against the
// portable loop for k 1..67 and rows 0..13 (every rows mod 4, so the
// rows the assembly leaves to dotUnrolled are covered), with the query
// and the rows starting 0–3 floats into their buffers, on normal draws
// and on IEEE edge cases.
func TestDotBatchKernelMatchesPortable(t *testing.T) {
	r := rand.New(rand.NewSource(68))
	for k := 1; k <= 67; k++ {
		for rows := 0; rows <= 13; rows++ {
			for qOff := 0; qOff < 4; qOff++ {
				for dOff := 0; dOff < 4; dOff++ {
					checkDotBatch(t, offsetCopy(randSlice(r, k), qOff),
						offsetCopy(randSlice(r, rows*k), dOff), k, "normal")
					checkDotBatch(t, offsetCopy(specialSlice(r, k), qOff),
						offsetCopy(specialSlice(r, rows*k), dOff), k, "special")
				}
			}
		}
	}
}

// FuzzDotBatch feeds arbitrary float32 bit patterns through DotBatch's
// kernel: raw is read as little-endian floats and cycled to fill a
// k-float query and a rows×k block, each placed off floats into its
// buffer. Its seed corpus runs under plain go test.
func FuzzDotBatch(f *testing.F) {
	le := func(vs ...float32) []byte {
		b := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(uint8(60), uint8(5), uint8(1), le(1.5, -2.25, 0.125, 3))
	f.Add(uint8(7), uint8(13), uint8(3), le(3e38, 2e38, -1e-20, 1))
	f.Add(uint8(3), uint8(4), uint8(2), le(float32(math.Inf(1)), 0, float32(math.Copysign(0, -1)), 2))
	f.Add(uint8(17), uint8(9), uint8(0), le(math.Float32frombits(1), -math.Float32frombits(0x007fffff), 1e-38, -0.5))
	f.Add(uint8(64), uint8(8), uint8(1), le(float32(math.NaN()), 1, float32(math.Inf(-1)), 1e30, 1e30))
	f.Fuzz(func(t *testing.T, kb, rb, off uint8, raw []byte) {
		if len(raw) < 4 {
			return
		}
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		k, rows := 1+int(kb)%67, int(rb)%14
		q := make([]float32, k)
		data := make([]float32, rows*k)
		for i := range q {
			q[i] = vals[i%len(vals)]
		}
		for i := range data {
			data[i] = vals[(k+i)%len(vals)]
		}
		checkDotBatch(t, offsetCopy(q, int(off)%4), offsetCopy(data, int(off/4)%4), k, "fuzz")
	})
}

// BenchmarkDotPanel streams a 4096-row candidate block for panels of
// 1–10 queries — the batched-query hot loop. b = 2 is two one-query
// passes and b = 3 rides the padded 4-query kernel; b = 6 and b = 10
// are one and two full groups plus a two-query tail (b = 10 is a feed
// of ten events). CI greps its output for "0 allocs/op".
func BenchmarkDotPanel(b *testing.B) {
	r := rand.New(rand.NewSource(65))
	const rows = 4096
	const k = 60
	for _, nq := range []int{1, 2, 3, 4, 6, 8, 10} {
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
