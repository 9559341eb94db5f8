package isort

import "math/bits"

// SortAsc sorts ids in ascending order of vals[id] with an introsort:
// quicksort with a depth guard that falls back to heapsort, so an
// adversarial ordering cannot push the sort quadratic. vals is indexed
// by id and left untouched.
func SortAsc(ids []int32, vals []float32) {
	quickSortIDs(ids, vals, 2*bits.Len(uint(len(ids))))
}

// SortDesc sorts ids in descending order of vals[id]: SortAsc followed
// by an in-place reversal, whose O(n) cost is noise next to the sort.
func SortDesc(ids []int32, vals []float32) {
	SortAsc(ids, vals)
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
}

// SelectAsc partially sorts ids so that ids[k] holds the element of
// ascending rank k (k-th smallest by vals[id]), everything before it is
// ≤ vals[ids[k]], and everything after is ≥. Average O(n) — the
// quickselect counterpart of SortAsc, with the same depth guard.
func SelectAsc(ids []int32, vals []float32, k int) {
	depth := 2 * bits.Len(uint(len(ids)))
	for len(ids) >= 24 {
		if depth == 0 {
			heapSortIDs(ids, vals)
			return
		}
		depth--
		mid := ids[len(ids)/2]
		pivot := vals[mid]
		lo, hi := 0, len(ids)-1
		for lo <= hi {
			for vals[ids[lo]] < pivot {
				lo++
			}
			for vals[ids[hi]] > pivot {
				hi--
			}
			if lo <= hi {
				ids[lo], ids[hi] = ids[hi], ids[lo]
				lo++
				hi--
			}
		}
		// [0,hi] ≤ pivot ≤ [lo,n); the band between is all-pivot.
		switch {
		case k <= hi:
			ids = ids[:hi+1]
		case k >= lo:
			ids = ids[lo:]
			k -= lo
		default:
			return // k lands in the pivot band: already in place
		}
	}
	insertionSortIDs(ids, vals)
}

// SelectTopUnique returns the ids of the k largest vals when the k-th
// largest value is held by one id only — the case in which the top k is
// one set whatever the selection order, so it equals what SelectAsc
// leaves in ids[n-k:] (in another order). ok is false, with no answer,
// when that value ties or any value is NaN; callers then fall back to
// SelectAsc. One pass keeps a k-element min-heap in scratch[:k] (the
// result aliases it) and a second counts the ties: O(n) compares plus
// O(k log k · log(n/k)) expected heap work, against quickselect's
// several partition passes. Requires 0 < k ≤ len(vals) ≤ len(scratch).
func SelectTopUnique(vals []float32, k int, scratch []int32) (top []int32, ok bool) {
	h := scratch[:0]
	for i := range k {
		h = append(h, int32(i))
		for j := i; j > 0; {
			p := (j - 1) / 2
			if vals[h[p]] <= vals[h[j]] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
	}
	kth := vals[h[0]]
	for i := k; i < len(vals); i++ {
		if vals[i] > kth {
			h[0] = int32(i)
			minSiftDownIDs(h, vals)
			kth = vals[h[0]]
		}
	}
	ties := 0
	for _, v := range vals {
		if v == kth {
			ties++
		} else if v != v {
			return nil, false
		}
	}
	return h, ties == 1
}

// minSiftDownIDs restores the min-heap order of ids (by vals[id]) after
// its root was replaced.
func minSiftDownIDs(ids []int32, vals []float32) {
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(ids) {
			return
		}
		m := l
		if r := l + 1; r < len(ids) && vals[ids[r]] < vals[ids[l]] {
			m = r
		}
		if vals[ids[i]] <= vals[ids[m]] {
			return
		}
		ids[i], ids[m] = ids[m], ids[i]
		i = m
	}
}

func quickSortIDs(ids []int32, vals []float32, depth int) {
	for len(ids) >= 24 {
		if depth == 0 {
			heapSortIDs(ids, vals)
			return
		}
		depth--
		mid := ids[len(ids)/2]
		pivot := vals[mid]
		lo, hi := 0, len(ids)-1
		for lo <= hi {
			for vals[ids[lo]] < pivot {
				lo++
			}
			for vals[ids[hi]] > pivot {
				hi--
			}
			if lo <= hi {
				ids[lo], ids[hi] = ids[hi], ids[lo]
				lo++
				hi--
			}
		}
		// Recurse into the smaller partition, loop on the larger: bounds
		// the stack at O(log n) even before the depth guard fires.
		if hi+1 < len(ids)-lo {
			quickSortIDs(ids[:hi+1], vals, depth)
			ids = ids[lo:]
		} else {
			quickSortIDs(ids[lo:], vals, depth)
			ids = ids[:hi+1]
		}
	}
	insertionSortIDs(ids, vals)
}

func insertionSortIDs(ids []int32, vals []float32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && vals[ids[j]] < vals[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// heapSortIDs is the depth-guard fallback: guaranteed O(n log n) on any
// input.
func heapSortIDs(ids []int32, vals []float32) {
	n := len(ids)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownIDs(ids, vals, i, n)
	}
	for end := n - 1; end > 0; end-- {
		ids[0], ids[end] = ids[end], ids[0]
		siftDownIDs(ids, vals, 0, end)
	}
}

func siftDownIDs(ids []int32, vals []float32, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && vals[ids[r]] > vals[ids[l]] {
			m = r
		}
		if vals[ids[i]] >= vals[ids[m]] {
			return
		}
		ids[i], ids[m] = ids[m], ids[i]
		i = m
	}
}
