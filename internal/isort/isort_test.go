package isort

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// patterns generates the adversarial shapes a ranking sort meets in
// practice: random, presorted, reversed, constant (the all-clamped-to-
// zero case NonNegative training produces), and few-distinct.
func patterns(r *rand.Rand, n int) map[string][]float32 {
	random := make([]float32, n)
	sorted := make([]float32, n)
	reversed := make([]float32, n)
	constant := make([]float32, n)
	fewDistinct := make([]float32, n)
	for i := 0; i < n; i++ {
		random[i] = float32(r.NormFloat64())
		sorted[i] = float32(i)
		reversed[i] = float32(n - i)
		constant[i] = 1
		fewDistinct[i] = float32(r.Intn(3))
	}
	return map[string][]float32{
		"random": random, "sorted": sorted, "reversed": reversed,
		"constant": constant, "fewDistinct": fewDistinct,
	}
}

func identity(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// checkPermutation verifies ids is a permutation of 0..n-1 — a sort
// that drops or duplicates ids corrupts whatever ranking consumes it.
func checkPermutation(t *testing.T, ids []int32) {
	t.Helper()
	seen := make([]bool, len(ids))
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(ids) || seen[id] {
			t.Fatalf("not a permutation: id %d", id)
		}
		seen[id] = true
	}
}

func TestSortAscMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 23, 24, 100, 4097} {
		for name, vals := range patterns(r, n) {
			ids := identity(n)
			SortAsc(ids, vals)
			checkPermutation(t, ids)
			for i := 1; i < n; i++ {
				if vals[ids[i-1]] > vals[ids[i]] {
					t.Fatalf("%s n=%d: out of order at %d", name, n, i)
				}
			}
		}
	}
}

func TestSortDescReverses(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for name, vals := range patterns(r, 257) {
		ids := identity(257)
		SortDesc(ids, vals)
		checkPermutation(t, ids)
		for i := 1; i < len(ids); i++ {
			if vals[ids[i-1]] < vals[ids[i]] {
				t.Fatalf("%s: not descending at %d", name, i)
			}
		}
	}
}

// TestSelectAscRankMatchesFullSort checks that the selected position
// holds exactly the value a full sort would put there, and that the
// partition invariant holds on both sides.
func TestSelectAscRankMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 23, 24, 100, 1025} {
		for name, vals := range patterns(r, n) {
			want := make([]float64, n)
			for i, v := range vals {
				want[i] = float64(v)
			}
			sort.Float64s(want)
			for _, k := range []int{0, n / 3, n / 2, n - 1} {
				ids := identity(n)
				SelectAsc(ids, vals, k)
				checkPermutation(t, ids)
				if float64(vals[ids[k]]) != want[k] {
					t.Fatalf("%s n=%d k=%d: got %v, want %v", name, n, k, vals[ids[k]], want[k])
				}
				for i := 0; i < k; i++ {
					if vals[ids[i]] > vals[ids[k]] {
						t.Fatalf("%s n=%d k=%d: left side violates partition", name, n, k)
					}
				}
				for i := k + 1; i < n; i++ {
					if vals[ids[i]] < vals[ids[k]] {
						t.Fatalf("%s n=%d k=%d: right side violates partition", name, n, k)
					}
				}
			}
		}
	}
}

// TestSelectTopUniqueMatchesSelectAsc checks the fast path against
// quickselect's top k on every pattern: whenever it answers, the set is
// the one SelectAsc leaves in ids[n-k:]; on untied data it always
// answers; on a tie at the k-th value or any NaN it declines.
func TestSelectTopUniqueMatchesSelectAsc(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 23, 24, 100, 1025} {
		for name, vals := range patterns(r, n) {
			for _, k := range []int{1, 2, 7, n / 3, n} {
				if k < 1 || k > n {
					continue
				}
				top, ok := SelectTopUnique(vals, k, make([]int32, n))
				ids := identity(n)
				SelectAsc(ids, vals, n-k)
				want := slices.Clone(ids[n-k:])
				slices.Sort(want)
				kth := vals[ids[n-k]]
				ties := 0
				for _, v := range vals {
					if v == kth {
						ties++
					}
				}
				if ok != (ties == 1) {
					t.Fatalf("%s n=%d k=%d: ok=%v with %d values equal to the k-th", name, n, k, ok, ties)
				}
				if !ok {
					continue
				}
				got := slices.Clone(top)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d k=%d: top %v, SelectAsc %v", name, n, k, got, want)
				}
			}
		}
	}
	vals := []float32{3, 1, float32(math.NaN()), 2}
	if _, ok := SelectTopUnique(vals, 1, make([]int32, len(vals))); ok {
		t.Fatal("answered over a NaN")
	}
}

// TestSortDeterministic guards the per-seed training reproducibility:
// the same input must produce the identical permutation every time,
// ties included.
func TestSortDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	vals := patterns(r, 2048)["fewDistinct"]
	first := identity(2048)
	SortAsc(first, vals)
	for trial := 0; trial < 3; trial++ {
		again := identity(2048)
		SortAsc(again, vals)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("trial %d: permutation differs at %d", trial, i)
			}
		}
	}
}

func BenchmarkSortAsc(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	const n = 8192
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(r.NormFloat64())
	}
	ids := identity(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ids, idsTemplate(n))
		SortAsc(ids, vals)
	}
}

// BenchmarkSortSliceStable is the closure-based baseline SortAsc
// replaced in the rank rebuilds.
func BenchmarkSortSliceStable(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	const n = 8192
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(r.NormFloat64())
	}
	ids := identity(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ids, idsTemplate(n))
		sort.SliceStable(ids, func(a, c int) bool { return vals[ids[a]] < vals[ids[c]] })
	}
}

func BenchmarkSelectAsc(b *testing.B) {
	r := rand.New(rand.NewSource(16))
	const n = 8192
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(r.NormFloat64())
	}
	ids := identity(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ids, idsTemplate(n))
		SelectAsc(ids, vals, n-1-(i%32))
	}
}

func BenchmarkSelectTopUnique(b *testing.B) {
	r := rand.New(rand.NewSource(16))
	const n = 8192
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(r.NormFloat64())
	}
	scratch := make([]int32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectTopUnique(vals, 1+(i%32), scratch)
	}
}

var templates = map[int][]int32{}

func idsTemplate(n int) []int32 {
	if t, ok := templates[n]; ok {
		return t
	}
	t := identity(n)
	templates[n] = t
	return t
}
