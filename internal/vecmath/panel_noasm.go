//go:build !amd64

package vecmath

// panelRows4 falls back to the portable micro-kernel, which shares its
// accumulation order with the amd64 assembly — DotPanel stays
// bit-identical to repeated Dot on every architecture.
func panelRows4(q0, q1, q2, q3, data []float32, k int, o0, o1, o2, o3 []float32) {
	panelRows4Go(q0, q1, q2, q3, data, k, o0, o1, o2, o3)
}
