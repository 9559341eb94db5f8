package engine

import (
	"testing"

	"ebsn/internal/rng"
	"ebsn/internal/ta"
)

// TestSearchBatchBitIdenticalToSearch checks the batched fan-out
// against per-user SearchInto calls across shard counts: same pairs, same
// score bits, same tie order — the property the serving coalescer
// depends on.
func TestSearchBatchBitIdenticalToSearch(t *testing.T) {
	src := rng.New(611)
	events := randomVecs(src, 30, 8)
	partners := randomVecs(src, 45, 8)
	for _, shards := range []int{1, 2, 3, 7} {
		e, err := Build(events, partners, Config{Shards: shards, TopKEvents: 12, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range []int{0, 1, 3, 8} {
			users := randomVecs(src, nb, 8)
			exclude := make([]int32, nb)
			for j := range exclude {
				exclude[j] = int32(src.Intn(len(partners)+2)) - 1
			}
			res, _, err := e.SearchBatch(users, 9, exclude)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != nb {
				t.Fatalf("shards=%d nb=%d: got %d result lists", shards, nb, len(res))
			}
			for j := 0; j < nb; j++ {
				want, _, err := e.SearchInto(users[j], 9, exclude[j], nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, "batch vs single", want, res[j])
			}
		}
	}
}

// TestSearchBatchQuantizedMatchesQuantizedSearch checks the quantized
// batched fan-out against per-user quantized SearchInto calls — both route
// through the int8 mirrors with exact re-ranking, so they must agree
// bit for bit.
func TestSearchBatchQuantizedMatchesQuantizedSearch(t *testing.T) {
	src := rng.New(612)
	events := randomVecs(src, 40, 10)
	partners := randomVecs(src, 50, 10)
	for _, shards := range []int{1, 3} {
		e, err := Build(events, partners, Config{Shards: shards, TopKEvents: 15, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		e.EnableQuantized()
		if !e.Quantized() {
			t.Fatal("Quantized() false after EnableQuantized")
		}
		users := randomVecs(src, 6, 10)
		exclude := make([]int32, len(users))
		for j := range exclude {
			exclude[j] = int32(j)
		}
		res, _, err := e.SearchBatch(users, 7, exclude)
		if err != nil {
			t.Fatal(err)
		}
		for j := range users {
			want, _, err := e.SearchInto(users[j], 7, exclude[j], nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "quantized batch vs single", want, res[j])
		}
	}
}

// TestSearchBatchStatsMatchSingles checks the batch path's stats
// against the same users queried one at a time: the access counts are
// the per-user sums, the candidate count is the engine's, and every
// shard reports.
func TestSearchBatchStatsMatchSingles(t *testing.T) {
	src := rng.New(615)
	events := randomVecs(src, 30, 8)
	partners := randomVecs(src, 45, 8)
	for _, shards := range []int{1, 2, 3, 7} {
		e, err := Build(events, partners, Config{Shards: shards, TopKEvents: 12, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range []int{1, 3, 8} {
			users := randomVecs(src, nb, 8)
			exclude := make([]int32, nb)
			for j := range exclude {
				exclude[j] = int32(src.Intn(len(partners)+2)) - 1
			}
			_, stats, err := e.SearchBatch(users, 9, exclude)
			if err != nil {
				t.Fatal(err)
			}
			var sorted, random int
			for j := range users {
				_, st, err := e.SearchInto(users[j], 9, exclude[j], nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				sorted += st.Agg.SortedAccesses
				random += st.Agg.RandomAccesses
			}
			if stats.Agg.SortedAccesses != sorted || stats.Agg.RandomAccesses != random {
				t.Errorf("shards=%d nb=%d: batch accesses %d sorted / %d random, singles sum to %d / %d",
					shards, nb, stats.Agg.SortedAccesses, stats.Agg.RandomAccesses, sorted, random)
			}
			if stats.Agg.Candidates != e.Candidates() {
				t.Errorf("shards=%d nb=%d: batch candidates %d, want %d", shards, nb, stats.Agg.Candidates, e.Candidates())
			}
			if len(stats.Shards) != e.Shards() {
				t.Errorf("shards=%d nb=%d: %d shard stats, want %d", shards, nb, len(stats.Shards), e.Shards())
			}
		}
	}
}

// TestElapsedCoversIndexTime pins that Agg.Elapsed accounts for a
// query's time in the index: each lane is charged its share of the
// panel passes, so the in-index time plus prepass and merge is nearly
// all of a one-user query's wall time. The best of 20 calls filters
// scheduler noise.
func TestElapsedCoversIndexTime(t *testing.T) {
	events, partners, queries := benchSpace()
	for _, shards := range []int{1, 3} {
		e, err := Build(events, partners, benchConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		var batch, single float64
		for i := 0; i < 20; i++ {
			u, ex := queries[i], int32(i)
			_, st, err := e.SearchBatch([][]float32{u}, 10, []int32{ex})
			if err != nil {
				t.Fatal(err)
			}
			batch = max(batch, float64(st.Agg.Elapsed)/float64(st.Wall))
			_, st, err = e.SearchInto(u, 10, ex, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			single = max(single, float64(st.Agg.Elapsed)/float64(st.Wall))
		}
		if batch < 0.8 || single < 0.8 {
			t.Errorf("shards=%d: best Agg.Elapsed/Wall is %.2f for SearchBatch and %.2f for SearchInto, want >= 0.8",
				shards, batch, single)
		}
	}
}

// TestSearchBatchValidation covers the batch front-door error paths.
func TestSearchBatchValidation(t *testing.T) {
	src := rng.New(613)
	e, err := Build(randomVecs(src, 6, 4), randomVecs(src, 8, 4), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	users := randomVecs(src, 3, 4)
	if _, _, err := e.SearchBatch(users, 0, nil); err == nil {
		t.Fatal("want error for n=0")
	}
	if _, _, err := e.SearchBatch(users, 5, make([]int32, 2)); err == nil {
		t.Fatal("want error for exclude length mismatch")
	}
	bad := [][]float32{{1, 2, 3}}
	if _, _, err := e.SearchBatch(bad, 5, nil); err == nil {
		t.Fatal("want error for wrong user dim")
	}
	res, _, err := e.SearchBatch(nil, 5, nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch: res=%v err=%v, want nil/nil", res, err)
	}
}

// TestSearchIntoSteadyStateAllocs pins the sharded single-query path
// back to zero steady-state allocations: with warmed caller buffers a
// SearchInto must not allocate. Shards=1 runs the fan-out inline; the
// multi-shard case spawns goroutines, whose stacks the runtime reuses.
func TestSearchIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation charges goroutine bookkeeping to the fan-out")
	}
	src := rng.New(614)
	events := randomVecs(src, 60, 12)
	partners := randomVecs(src, 80, 12)
	for _, shards := range []int{1, 4} {
		e, err := Build(events, partners, Config{Shards: shards, TopKEvents: 20, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		queries := randomVecs(src, 8, 12)
		var out []ta.Result
		var ss []ShardStats
		// Warm every pooled scratch and the caller buffers.
		for i := 0; i < 16; i++ {
			out, _, err = e.SearchInto(queries[i%len(queries)], 10, int32(i), out, ss)
			if err != nil {
				t.Fatal(err)
			}
			if ss == nil {
				ss = make([]ShardStats, shards)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			out, _, err = e.SearchInto(queries[0], 10, 3, out, ss)
			if err != nil {
				t.Fatal(err)
			}
		})
		// The multi-shard fan-out spawns goroutines; the runtime may
		// charge an occasional stack or scheduler allocation to us, so
		// allow a small slack there while holding the inline path to
		// exactly zero.
		limit := 0.0
		if shards > 1 {
			limit = 1.0
		}
		if allocs > limit {
			t.Errorf("shards=%d: %v allocs per warmed SearchInto, want <= %v", shards, allocs, limit)
		}
	}
}
