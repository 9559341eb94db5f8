package engine

import (
	"math"
	"sync"
	"testing"

	"ebsn/internal/rng"
	"ebsn/internal/ta"
)

func randomVecs(src *rng.Source, n, k int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, k)
		for d := range v {
			v[d] = float32(src.NormFloat64())
		}
		out[i] = v
	}
	return out
}

// monolithic builds the unsharded reference index over the same inputs
// the engine shards.
func monolithic(t *testing.T, events, partners [][]float32, topK int) *ta.FastIndex {
	t.Helper()
	ev := make([][]float32, len(events))
	copy(ev, events)
	ps := make([][]float32, len(partners))
	copy(ps, partners)
	set, err := ta.BuildCandidates(ev, ps, ta.BuildConfig{TopKEvents: topK, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ta.NewFastIndex(set)
}

// monoSearch answers one query from the unsharded reference index into
// fresh storage.
func monoSearch(f *ta.FastIndex, userVec []float32, n int, exclude int32, pred ta.EventPredicate) ([]ta.Result, ta.SearchStats) {
	return f.Search(ta.Query{Vec: userVec, N: n, Exclude: exclude, Pred: pred}, new(ta.Scratch))
}

func assertBitIdentical(t *testing.T, label string, want, got []ta.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Event != got[i].Event || want[i].Partner != got[i].Partner {
			t.Fatalf("%s: result %d is (event %d, partner %d), want (event %d, partner %d)",
				label, i, got[i].Event, got[i].Partner, want[i].Event, want[i].Partner)
		}
		wb, gb := math.Float32bits(want[i].Score), math.Float32bits(got[i].Score)
		if wb != gb {
			t.Fatalf("%s: result %d score bits %#x, want %#x", label, i, gb, wb)
		}
	}
}

// shardCounts is the property-test grid from the issue.
var shardCounts = []int{1, 2, 3, 8}

// TestShardedBitIdenticalToMonolithic is the shard-merge exactness
// property test: for every shard count, across random seeds, shapes,
// result sizes and exclusions, the engine's merged top-n must be
// bit-identical to the monolithic FastIndex answer, and the aggregated
// SearchStats must be the exact sum of the per-shard stats with the
// monolithic candidate total.
func TestShardedBitIdenticalToMonolithic(t *testing.T) {
	shapes := []struct {
		nx, nu, k, topK int
	}{
		{20, 13, 6, 0},
		{35, 40, 8, 7},
		{9, 64, 10, 3},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		src := rng.New(600 + seed)
		for _, sh := range shapes {
			events := randomVecs(src, sh.nx, sh.k)
			partners := randomVecs(src, sh.nu, sh.k)
			mono := monolithic(t, events, partners, sh.topK)
			for _, shards := range shardCounts {
				e, err := Build(events, partners, Config{Shards: shards, TopKEvents: sh.topK, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				for q := 0; q < 12; q++ {
					userVec := randomVecs(src, 1, sh.k)[0]
					n := 1 + src.Intn(sh.nu*2)
					exclude := int32(src.Intn(sh.nu+2)) - 1
					want, wantStats := monoSearch(mono, userVec, n, exclude, nil)
					got, stats, err := e.SearchInto(userVec, n, exclude, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, "sharded vs monolithic", want, got)
					if stats.Agg.Candidates != wantStats.Candidates {
						t.Fatalf("aggregate candidates %d, monolithic %d", stats.Agg.Candidates, wantStats.Candidates)
					}
					var sorted, random, cands int
					for _, ss := range stats.Shards {
						sorted += ss.Stats.SortedAccesses
						random += ss.Stats.RandomAccesses
						cands += ss.Stats.Candidates
					}
					if sorted != stats.Agg.SortedAccesses || random != stats.Agg.RandomAccesses || cands != stats.Agg.Candidates {
						t.Fatalf("aggregate stats %+v are not the sum of the per-shard stats (%d/%d/%d)",
							stats.Agg, sorted, random, cands)
					}
					if len(stats.Shards) != e.Shards() {
						t.Fatalf("got %d shard stats, want %d", len(stats.Shards), e.Shards())
					}
				}
			}
		}
	}
}

// TestShardedTiesAtBoundary forces exact score ties across the top-n
// boundary — duplicated event and partner rows produce bit-equal
// affinities and cross terms — and asserts the canonical tie-break
// keeps every shard count's answer identical.
func TestShardedTiesAtBoundary(t *testing.T) {
	src := rng.New(77)
	k := 5
	// 4 distinct event rows replicated 6×, 3 distinct partner rows
	// replicated 8×: every score is shared by a 48-pair tie class.
	baseEv := randomVecs(src, 4, k)
	baseUs := randomVecs(src, 3, k)
	events := make([][]float32, 0, 24)
	for i := 0; i < 24; i++ {
		events = append(events, baseEv[i%4])
	}
	partners := make([][]float32, 0, 24)
	for i := 0; i < 24; i++ {
		partners = append(partners, baseUs[i%3])
	}
	mono := monolithic(t, events, partners, 0)
	for _, shards := range shardCounts {
		e, err := Build(events, partners, Config{Shards: shards, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 8; q++ {
			userVec := randomVecs(src, 1, k)[0]
			// n values chosen to land inside tie classes, not on their
			// edges.
			for _, n := range []int{1, 5, 17, 50, 100} {
				want, _ := monoSearch(mono, userVec, n, -1, nil)
				got, _, err := e.SearchInto(userVec, n, -1, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, "tied boundary", want, got)
			}
		}
	}
}

// TestShardedExclusion pins exclusion semantics: excluding a partner
// from any shard's range removes exactly that partner, matching the
// monolithic path.
func TestShardedExclusion(t *testing.T) {
	src := rng.New(78)
	events := randomVecs(src, 15, 7)
	partners := randomVecs(src, 30, 7)
	mono := monolithic(t, events, partners, 0)
	e, err := Build(events, partners, Config{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	userVec := randomVecs(src, 1, 7)[0]
	for u := int32(-1); u < 30; u++ {
		want, _ := monoSearch(mono, userVec, 12, u, nil)
		got, _, err := e.SearchInto(userVec, 12, u, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "exclusion", want, got)
		for _, r := range got {
			if u >= 0 && r.Partner == u {
				t.Fatalf("excluded partner %d surfaced", u)
			}
		}
	}
}

// TestSearchValidation covers the error half of the shard contract.
func TestSearchValidation(t *testing.T) {
	src := rng.New(79)
	e, err := Build(randomVecs(src, 5, 4), randomVecs(src, 6, 4), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.SearchInto(make([]float32, 3), 5, -1, nil, nil); err == nil {
		t.Fatal("wrong-length user vector accepted")
	}
	if _, _, err := e.SearchInto(make([]float32, 4), 0, -1, nil, nil); err == nil {
		t.Fatal("n = 0 accepted")
	}
	if _, err := Build(nil, randomVecs(src, 2, 4), Config{}); err == nil {
		t.Fatal("empty event set accepted")
	}
}

// TestBuildShardPartition checks the partner ranges tile [0, |U|)
// contiguously and the pair total matches the monolithic space.
func TestBuildShardPartition(t *testing.T) {
	src := rng.New(80)
	events := randomVecs(src, 12, 5)
	partners := randomVecs(src, 29, 5)
	for _, shards := range []int{1, 2, 3, 8, 29, 100} {
		e, err := Build(events, partners, Config{Shards: shards, TopKEvents: 4})
		if err != nil {
			t.Fatal(err)
		}
		wantShards := shards
		if wantShards > 29 {
			wantShards = 29
		}
		if e.Shards() != wantShards {
			t.Fatalf("built %d shards, want %d", e.Shards(), wantShards)
		}
		next := int32(0)
		for i := 0; i < e.Shards(); i++ {
			lo, hi := e.shards[i].lo, e.shards[i].hi
			if lo != next || hi <= lo {
				t.Fatalf("shard %d range [%d, %d), want lo %d", i, lo, hi, next)
			}
			next = hi
		}
		if next != 29 {
			t.Fatalf("ranges end at %d, want 29", next)
		}
		if e.Candidates() != 29*4 {
			t.Fatalf("pair total %d, want %d", e.Candidates(), 29*4)
		}
	}
}

// TestConcurrentFanout hammers one engine from many goroutines — the
// test the CI race step leans on to prove the scatter-gather path
// (shared affinity buffer, per-shard scratch, merge) is data-race free.
// Every query is verified against the monolithic answer, so a race that
// corrupts results fails even without -race.
func TestConcurrentFanout(t *testing.T) {
	src := rng.New(81)
	events := randomVecs(src, 25, 8)
	partners := randomVecs(src, 40, 8)
	mono := monolithic(t, events, partners, 10)
	e, err := Build(events, partners, Config{Shards: 3, TopKEvents: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomVecs(src, 32, 8)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < 25; q++ {
				uv := queries[(g*25+q)%len(queries)]
				n := 1 + (g+q)%15
				exclude := int32((g + q) % 41)
				want, _ := monoSearch(mono, uv, n, exclude, nil)
				got, stats, err := e.SearchInto(uv, n, exclude, nil, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(got) != len(want) {
					errs <- "result length mismatch under concurrency"
					return
				}
				for i := range want {
					if want[i] != got[i] {
						errs <- "result mismatch under concurrency"
						return
					}
				}
				if len(stats.Shards) != 3 {
					errs <- "shard stats mismatch under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
