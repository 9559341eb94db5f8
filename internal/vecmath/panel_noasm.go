//go:build !amd64

package vecmath

// panelRows4 and batchRows fall back to the portable kernels, which
// share their accumulation order with the amd64 assembly — DotPanel and
// DotBatch stay bit-identical to repeated Dot on every architecture.
func panelRows4(q0, q1, q2, q3, data []float32, k int, o0, o1, o2, o3 []float32) {
	panelRows4Go(q0, q1, q2, q3, data, k, o0, o1, o2, o3)
}

func batchRows(q, data []float32, k int, out []float32) {
	batchRowsGo(q, data, k, out)
}
