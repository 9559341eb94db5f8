package ta

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ebsn/internal/rng"
	"ebsn/internal/vecmath"
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

func buildSmallSet(t testing.TB, seed uint64, nEvents, nPartners, k, topK int, signed bool) *CandidateSet {
	t.Helper()
	src := rng.New(seed)
	events := randomVecs(src, nEvents, k, signed)
	partners := randomVecs(src, nPartners, k, signed)
	cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: topK, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// approxEqual compares scores computed by different expressions by
// design: CandidateSet.Score against the transformed inner product.
func approxEqual(a, b float32) bool {
	return math.Abs(float64(a)-float64(b)) <= 1e-4*(1+math.Abs(float64(a)))
}

func TestSpaceTransformIdentity(t *testing.T) {
	// q_u · p_{xu'} must equal u·x + u'·x + u·u' for every pair.
	cs := buildSmallSet(t, 1, 20, 15, 8, 0, true)
	src := rng.New(2)
	u := randomVecs(src, 1, 8, true)[0]
	q := QueryPoint(u)
	for i := range cs.Pairs {
		direct := cs.Score(u, i)
		transformed := vecmath.Dot(q, cs.Point(i))
		if !approxEqual(direct, transformed) {
			t.Fatalf("pair %d: direct %v != transformed %v", i, direct, transformed)
		}
	}
}

func TestSpaceTransformIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cs := buildSmallSet(t, seed, 10, 8, 4, 0, true)
		src := rng.New(seed ^ 0xabc)
		u := randomVecs(src, 1, 4, true)[0]
		q := QueryPoint(u)
		for i := range cs.Pairs {
			if !approxEqual(cs.Score(u, i), vecmath.Dot(q, cs.Point(i))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFullSpaceSize(t *testing.T) {
	cs := buildSmallSet(t, 3, 12, 7, 4, 0, true)
	if len(cs.Pairs) != 12*7 {
		t.Fatalf("unpruned space has %d pairs, want %d", len(cs.Pairs), 84)
	}
	if cs.Dims() != 9 {
		t.Fatalf("dims = %d, want 2K+1 = 9", cs.Dims())
	}
}

func TestPrunedSpaceSizeAndContents(t *testing.T) {
	cs := buildSmallSet(t, 4, 30, 9, 6, 5, true)
	if len(cs.Pairs) != 9*5 {
		t.Fatalf("pruned space has %d pairs, want %d", len(cs.Pairs), 45)
	}
	// Every retained pair must be in its partner's true top-5 by u'·x.
	for i, pair := range cs.Pairs {
		pv := cs.Partners[pair.Partner]
		s := vecmath.Dot(pv, cs.Events[pair.Event])
		better := 0
		for _, ev := range cs.Events {
			if vecmath.Dot(pv, ev) > s {
				better++
			}
		}
		if better >= 5 {
			t.Fatalf("pair %d: event ranks %d-th for its partner, beyond top-5", i, better+1)
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := BuildCandidates(nil, [][]float32{{1}}, BuildConfig{}); err == nil {
		t.Error("empty events accepted")
	}
	if _, err := BuildCandidates([][]float32{{1, 2}}, [][]float32{{1}}, BuildConfig{}); err == nil {
		t.Error("mismatched vector lengths accepted")
	}
	if _, err := BuildCandidates([][]float32{{1, 2}, {1}}, [][]float32{{1, 2}}, BuildConfig{}); err == nil {
		t.Error("ragged event vectors accepted")
	}
}

func TestBruteForceTopNOrdering(t *testing.T) {
	cs := buildSmallSet(t, 5, 25, 10, 6, 0, true)
	src := rng.New(6)
	u := randomVecs(src, 1, 6, true)[0]
	res := cs.BruteForceTopN(u, 10)
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not descending")
		}
	}
	// Cross-check against exhaustive sort.
	all := make([]float32, len(cs.Pairs))
	for i := range cs.Pairs {
		all[i] = cs.Score(u, i)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	for i := 0; i < 10; i++ {
		if res[i].Score != all[i] {
			t.Fatalf("rank %d: %v != exhaustive %v", i, res[i].Score, all[i])
		}
	}
}

func TestBruteForceEdgeCases(t *testing.T) {
	cs := buildSmallSet(t, 12, 6, 4, 4, 0, true)
	src := rng.New(13)
	u := randomVecs(src, 1, 4, true)[0]
	if res := cs.BruteForceTopN(u, 0); res != nil {
		t.Fatal("n=0 returned results")
	}
	if res := cs.BruteForceTopN(u, 100); len(res) != len(cs.Pairs) {
		t.Fatal("n>candidates should return all pairs")
	}
}

func TestQueryShape(t *testing.T) {
	u := []float32{1, 2, 3}
	q := QueryPoint(u)
	want := []float32{1, 2, 3, 1, 2, 3, 1}
	if len(q) != len(want) {
		t.Fatalf("query length %d", len(q))
	}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("query = %v, want %v", q, want)
		}
	}
}

func TestTopEventsForExactness(t *testing.T) {
	src := rng.New(14)
	events := randomVecs(src, 50, 6, true)
	partner := randomVecs(src, 1, 6, true)[0]
	scores := make([]float32, len(events))
	for i, ev := range events {
		scores[i] = vecmath.Dot(partner, ev)
	}
	got := selectTopEvents(scores, 7, nil, make([]int32, 7))
	if len(got) != 7 {
		t.Fatalf("got %d events", len(got))
	}
	// Compare against exhaustive ranking.
	type sx struct {
		x int32
		s float32
	}
	all := make([]sx, len(events))
	for i, ev := range events {
		all[i] = sx{int32(i), vecmath.Dot(partner, ev)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
	want := map[int32]bool{}
	for _, e := range all[:7] {
		want[e.x] = true
	}
	for _, x := range got {
		if !want[x] {
			t.Fatalf("event %d not in true top-7", x)
		}
	}
}

func TestAccessFraction(t *testing.T) {
	s := SearchStats{RandomAccesses: 25, Candidates: 100}
	if s.AccessFraction() != 0.25 {
		t.Fatal("AccessFraction wrong")
	}
	if (SearchStats{}).AccessFraction() != 0 {
		t.Fatal("zero-candidate fraction should be 0")
	}
}

func BenchmarkBruteForceTop10(b *testing.B) {
	src := rng.New(20)
	events := randomVecs(src, 400, 16, false)
	partners := randomVecs(src, 1000, 16, false)
	cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: 40, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	u := randomVecs(src, 1, 16, false)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.BruteForceTopN(u, 10)
	}
}

func TestVarianceOfScoresNonTrivial(t *testing.T) {
	// Guard against degenerate test fixtures: candidate scores should
	// spread, otherwise the TA pruning tests prove nothing.
	cs := buildSmallSet(t, 16, 50, 50, 8, 0, true)
	src := rng.New(17)
	u := randomVecs(src, 1, 8, true)[0]
	var mean, sq float64
	for i := range cs.Pairs {
		s := float64(cs.Score(u, i))
		mean += s
		sq += s * s
	}
	n := float64(len(cs.Pairs))
	mean /= n
	if sq/n-mean*mean < 1e-6 {
		t.Fatal("candidate scores are degenerate")
	}
	_ = math.Pi
}
