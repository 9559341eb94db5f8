package fagin

import "math"

// jacobiEigen computes the eigendecomposition of a symmetric d×d matrix
// (row-major) with the cyclic Jacobi method: a = V · diag(w) · Vᵀ. It
// returns the eigenvalues and the column-eigenvector matrix V (row-major,
// V[i*d+j] = component i of eigenvector j). d is small here — at most
// K+1 ≤ 101 — so the O(d³) sweeps are trivial next to index building.
func jacobiEigen(a []float64, d int) (w []float64, v []float64) {
	m := make([]float64, len(a))
	copy(m, a)
	v = make([]float64, d*d)
	for i := 0; i < d; i++ {
		v[i*d+i] = 1
	}
	for sweep := 0; sweep < 64; sweep++ {
		// Sum of off-diagonal magnitudes; stop when negligible.
		var off float64
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				off += math.Abs(m[i*d+j])
			}
		}
		if off < 1e-10 {
			break
		}
		for p := 0; p < d; p++ {
			for q := p + 1; q < d; q++ {
				apq := m[p*d+q]
				if math.Abs(apq) < 1e-14 {
					continue
				}
				app, aqq := m[p*d+p], m[q*d+q]
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Rotate rows/columns p and q of m.
				for i := 0; i < d; i++ {
					aip, aiq := m[i*d+p], m[i*d+q]
					m[i*d+p] = c*aip - s*aiq
					m[i*d+q] = s*aip + c*aiq
				}
				for i := 0; i < d; i++ {
					api, aqi := m[p*d+i], m[q*d+i]
					m[p*d+i] = c*api - s*aqi
					m[q*d+i] = s*api + c*aqi
				}
				// Accumulate the rotation into V.
				for i := 0; i < d; i++ {
					vip, viq := v[i*d+p], v[i*d+q]
					v[i*d+p] = c*vip - s*viq
					v[i*d+q] = s*vip + c*viq
				}
			}
		}
	}
	w = make([]float64, d)
	for i := 0; i < d; i++ {
		w[i] = m[i*d+i]
	}
	return w, v
}
