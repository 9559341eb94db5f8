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
					if len(res) != len(bf) {
						t.Fatalf("signed=%v topK=%d n=%d: %d results vs BF %d", signed, topK, n, len(res), len(bf))
					}
					for i := range bf {
						if !approxEqual(res[i].Score, bf[i].Score) {
							t.Fatalf("signed=%v topK=%d trial=%d n=%d rank=%d: fast %v vs BF %v",
								signed, topK, trial, n, i, res[i].Score, bf[i].Score)
						}
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
		if len(bf) != len(res) {
			return false
		}
		for i := range bf {
			if !approxEqual(bf[i].Score, res[i].Score) {
				return false
			}
		}
		return true
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
	got, _ := f.TopN(zero, 3)
	for i := range bf {
		if !approxEqual(bf[i].Score, got[i].Score) {
			t.Fatalf("zero-query mismatch at %d", i)
		}
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
	// Against a filtered brute force.
	bf := cs.BruteForceTopN(u, len(cs.Pairs))
	var want []Result
	for _, r := range bf {
		if r.Partner != exclude {
			want = append(want, r)
		}
		if len(want) == 8 {
			break
		}
	}
	for i := range want {
		if !approxEqual(want[i].Score, res[i].Score) {
			t.Fatalf("rank %d: %v vs filtered BF %v", i, res[i].Score, want[i].Score)
		}
	}
}
