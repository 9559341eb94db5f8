package ta

import (
	"testing"
	"testing/quick"

	"ebsn/internal/rng"
)

func TestFastIndexMatchesBruteForce(t *testing.T) {
	for _, signed := range []bool{false, true} {
		for _, topK := range []int{0, 7} {
			cs := buildSmallSet(t, 61, 40, 25, 8, topK, signed)
			f := NewFastIndex(cs)
			src := rng.New(62)
			for trial := 0; trial < 25; trial++ {
				u := randomVecs(src, 1, 8, signed)[0]
				for _, n := range []int{1, 5, 10} {
					bf := cs.BruteForceTopN(u, n)
					res, stats := f.TopN(u, n)
					if !sameResults(bf, res) {
						t.Fatalf("signed=%v topK=%d trial=%d n=%d: fast %v vs BF %v", signed, topK, trial, n, res, bf)
					}
					if stats.RandomAccesses > stats.Candidates {
						t.Fatal("accesses exceed candidates")
					}
				}
			}
		}
	}
}

func TestFastIndexMatchesBruteForceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cs := buildSmallSet(t, seed, 12, 9, 4, 0, true)
		fi := NewFastIndex(cs)
		src := rng.New(seed ^ 0x77)
		u := randomVecs(src, 1, 4, true)[0]
		bf := cs.BruteForceTopN(u, 5)
		res, _ := fi.TopN(u, 5)
		return sameResults(bf, res)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFastIndexPrunesOnStructuredData(t *testing.T) {
	// With spread-out partner affinities, most partners' bounds fall
	// below the running top-n and their pairs are never materialized.
	src := rng.New(63)
	events := randomVecs(src, 100, 16, false)
	partners := randomVecs(src, 800, 16, false)
	cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFastIndex(cs)
	u := randomVecs(src, 1, 16, false)[0]
	res, stats := f.TopN(u, 10)
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	if frac := stats.AccessFraction(); frac > 0.5 {
		t.Errorf("fast index materialized %.0f%% of pairs", frac*100)
	}
}

func TestFastIndexDegenerateInputs(t *testing.T) {
	cs := buildSmallSet(t, 65, 8, 5, 4, 0, true)
	f := NewFastIndex(cs)
	zero := make([]float32, 4)
	if res, _ := f.TopN(zero, 0); res != nil {
		t.Error("n=0 returned results")
	}
	res, _ := f.TopN(zero, 1000)
	if len(res) != len(cs.Pairs) {
		t.Errorf("n>candidates returned %d of %d", len(res), len(cs.Pairs))
	}
	bf := cs.BruteForceTopN(zero, 3)
	if got, _ := f.TopN(zero, 3); !sameResults(bf, got) {
		t.Fatalf("zero query: fast %v vs BF %v", got, bf)
	}
}

func BenchmarkFastIndexTop10(b *testing.B) {
	src := rng.New(66)
	events := randomVecs(src, 400, 16, false)
	partners := randomVecs(src, 1000, 16, false)
	cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: 40, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	f := NewFastIndex(cs)
	u := randomVecs(src, 1, 16, false)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TopN(u, 10)
	}
}

func TestFastIndexExcluding(t *testing.T) {
	cs := buildSmallSet(t, 71, 20, 10, 6, 0, true)
	f := NewFastIndex(cs)
	src := rng.New(72)
	u := randomVecs(src, 1, 6, true)[0]
	const exclude = int32(3)
	res, _ := f.Search(Query{Vec: u, N: 8, Exclude: exclude}, new(Scratch))
	if len(res) != 8 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r.Partner == exclude {
			t.Fatal("excluded partner present")
		}
	}
	if want := filterThenRankOracle(cs, u, 8, exclude, nil); !sameResults(want, res) {
		t.Fatalf("got %v, filtered BF %v", res, want)
	}
}
