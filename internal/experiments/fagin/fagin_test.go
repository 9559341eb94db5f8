package fagin

import (
	"math"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"

	"ebsn/internal/rng"
	"ebsn/internal/ta"
)

func randomVecs(src *rng.Source, n, k int, signed bool) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, k)
		for f := range v {
			v[f] = float32(src.Gaussian(0, 1))
			if !signed && v[f] < 0 {
				v[f] = -v[f]
			}
		}
		out[i] = v
	}
	return out
}

func buildSmallSet(t testing.TB, seed uint64, nEvents, nPartners, k, topK int, signed bool) *ta.CandidateSet {
	t.Helper()
	src := rng.New(seed)
	events := randomVecs(src, nEvents, k, signed)
	partners := randomVecs(src, nPartners, k, signed)
	cs, err := ta.BuildCandidates(events, partners, ta.BuildConfig{TopKEvents: topK, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// approxEqual compares the index's scores with brute force's: the stop
// has a 1e-6 slack, so ranks near a tie may hold different pairs.
func approxEqual(a, b float32) bool {
	return math.Abs(float64(a)-float64(b)) <= 1e-4*(1+math.Abs(float64(a)))
}

// benchSet is the internal/ta benchmark space: 2000 events × 5000
// partners at K=60 with top-50 pruning, 250k pairs.
func benchSet(b *testing.B) *ta.CandidateSet {
	b.Helper()
	src := rng.New(91)
	events := randomVecs(src, 2000, 60, true)
	partners := randomVecs(src, 5000, 60, true)
	cs, err := ta.BuildCandidates(events, partners, ta.BuildConfig{TopKEvents: 50, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// benchWorkerCounts covers the serial baseline and the machine's full
// parallelism (plus an intermediate point when there is one).
func benchWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	counts := []int{1}
	if max >= 4 {
		counts = append(counts, max/2)
	}
	if max > 1 {
		counts = append(counts, max)
	}
	return counts
}

func TestTAMatchesBruteForce(t *testing.T) {
	for _, signed := range []bool{false, true} {
		cs := buildSmallSet(t, 7, 40, 25, 8, 0, signed)
		idx := New(cs, 0)
		src := rng.New(8)
		for trial := 0; trial < 20; trial++ {
			u := randomVecs(src, 1, 8, signed)[0]
			for _, n := range []int{1, 5, 10} {
				bf := cs.BruteForceTopN(u, n)
				taRes, stats := idx.TopN(u, n, new(Scratch))
				if len(taRes) != len(bf) {
					t.Fatalf("signed=%v n=%d: TA returned %d results, BF %d", signed, n, len(taRes), len(bf))
				}
				for i := range bf {
					if !approxEqual(taRes[i].Score, bf[i].Score) {
						t.Fatalf("signed=%v trial=%d n=%d rank=%d: TA %v vs BF %v",
							signed, trial, n, i, taRes[i].Score, bf[i].Score)
					}
				}
				if stats.RandomAccesses > stats.Candidates {
					t.Fatal("random accesses exceed candidate count")
				}
			}
		}
	}
}

func TestTAMatchesBruteForceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cs := buildSmallSet(t, seed, 15, 10, 4, 0, true)
		idx := New(cs, 0)
		src := rng.New(seed ^ 0x55)
		u := randomVecs(src, 1, 4, true)[0]
		bf := cs.BruteForceTopN(u, 5)
		taRes, _ := idx.TopN(u, 5, new(Scratch))
		if len(bf) != len(taRes) {
			return false
		}
		for i := range bf {
			if !approxEqual(bf[i].Score, taRes[i].Score) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTAPrunesAccesses(t *testing.T) {
	// On a larger concentrated instance, TA must stop well before
	// touching every candidate — the whole point of Table VI.
	cs := buildSmallSet(t, 9, 200, 300, 16, 0, false)
	idx := New(cs, 0)
	src := rng.New(10)
	u := randomVecs(src, 1, 16, false)[0]
	_, stats := idx.TopN(u, 10, new(Scratch))
	if frac := stats.AccessFraction(); frac >= 0.9 {
		t.Errorf("TA evaluated %.0f%% of candidates; expected pruning", frac*100)
	}
}

func TestTAHandlesDegenerateQueries(t *testing.T) {
	cs := buildSmallSet(t, 11, 10, 5, 4, 0, true)
	idx := New(cs, 0)
	zero := make([]float32, 4)
	// All-zero user: q has only the constant coordinate; still correct.
	bf := cs.BruteForceTopN(zero, 3)
	res, _ := idx.TopN(zero, 3, new(Scratch))
	for i := range bf {
		if !approxEqual(bf[i].Score, res[i].Score) {
			t.Fatalf("zero-query rank %d: %v vs %v", i, res[i].Score, bf[i].Score)
		}
	}
	// n larger than candidate count.
	resAll, _ := idx.TopN(zero, 1000, new(Scratch))
	if len(resAll) != len(cs.Pairs) {
		t.Fatalf("n>candidates returned %d of %d", len(resAll), len(cs.Pairs))
	}
	// n = 0.
	if res, _ := idx.TopN(zero, 0, new(Scratch)); res != nil {
		t.Fatal("n=0 returned results")
	}
}

func TestSortedListsAreSorted(t *testing.T) {
	cs := buildSmallSet(t, 15, 30, 20, 6, 0, true)
	idx := New(cs, 0)
	if len(idx.sorted) != cs.K+1 {
		t.Fatalf("index has %d dimensions, want reduced K+1 = %d", len(idx.sorted), cs.K+1)
	}
	for d := range idx.sorted {
		list := idx.sorted[d]
		for i := 1; i < len(list); i++ {
			if idx.vals[d][list[i-1]] > idx.vals[d][list[i]]+1e-7 {
				t.Fatalf("dimension %d not ascending at %d", d, i)
			}
		}
	}
	// The index stores an orthogonal rotation of the reduced coordinates
	// (x+u', x·u'). Orthogonality preserves norms: per pair, the squared
	// norm of the rotated coordinates must equal that of the reduced
	// form built from the paper's full transform.
	for i := range cs.Pairs {
		p := cs.Point(i)
		var reduced, rotated float64
		for d := 0; d < cs.K; d++ {
			v := float64(p[d] + p[cs.K+d])
			reduced += v * v
		}
		reduced += float64(p[2*cs.K]) * float64(p[2*cs.K])
		for d := 0; d <= cs.K; d++ {
			rotated += float64(idx.vals[d][i]) * float64(idx.vals[d][i])
		}
		if math.Abs(reduced-rotated) > 1e-3*(1+reduced) {
			t.Fatalf("pair %d: rotation changed norm %v -> %v", i, reduced, rotated)
		}
	}
}

func BenchmarkTATop10(b *testing.B) {
	src := rng.New(20)
	events := randomVecs(src, 400, 16, false)
	partners := randomVecs(src, 1000, 16, false)
	cs, err := ta.BuildCandidates(events, partners, ta.BuildConfig{TopKEvents: 40, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	idx := New(cs, 0)
	u := randomVecs(src, 1, 16, false)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.TopN(u, 10, new(Scratch))
	}
}

// BenchmarkIndexTopN measures a Fagin query with a warm scratch.
func BenchmarkIndexTopN(b *testing.B) {
	cs := benchSet(b)
	idx := New(cs, 0)
	src := rng.New(94)
	queries := randomVecs(src, 64, 60, true)
	var sc Scratch
	idx.TopN(queries[0], 10, &sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.TopN(queries[i%len(queries)], 10, &sc)
	}
}

// BenchmarkNewIndex measures the Fagin index build (rotation + per-
// dimension sorts) across worker counts.
func BenchmarkNewIndex(b *testing.B) {
	cs := benchSet(b)
	for _, w := range benchWorkerCounts() {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				New(cs, w)
			}
		})
	}
}
