//go:build amd64

package vecmath

// dotPanelRows4 is the SSE2 4-query float32 panel micro-kernel
// (panel_amd64.s), bit-identical to panelRows4Go.
//
//go:noescape
func dotPanelRows4(q0, q1, q2, q3 *float32, k int, data *float32, rows int, o0, o1, o2, o3 *float32)

// dotBatchRows4 is the SSE2 one-query micro-kernel (panel_amd64.s): it
// scores q against rows candidate rows, four per step, so rows must be
// a multiple of four. Bit-identical to batchRowsGo.
//
//go:noescape
func dotBatchRows4(q *float32, k int, data *float32, rows int, out *float32)

// panelRows4 dispatches the 4-query float32 micro-kernel. DotPanel
// guarantees k > 0 and len(o0) > 0, so every slice is non-empty.
func panelRows4(q0, q1, q2, q3, data []float32, k int, o0, o1, o2, o3 []float32) {
	dotPanelRows4(&q0[0], &q1[0], &q2[0], &q3[0], k, &data[0], len(o0), &o0[0], &o1[0], &o2[0], &o3[0])
}

// batchRows dispatches the one-query kernel: the assembly takes the
// rows in groups of four and the rows mod 4 go through dotUnrolled.
// DotBatch guarantees k > 0, len(q) == k and len(data) == len(out)*k.
func batchRows(q, data []float32, k int, out []float32) {
	n4 := len(out) &^ 3
	if n4 > 0 {
		dotBatchRows4(&q[0], k, &data[0], n4, &out[0])
	}
	for r := n4; r < len(out); r++ {
		out[r] = dotUnrolled(q, data[r*k:r*k+k:r*k+k])
	}
}
