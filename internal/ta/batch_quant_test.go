package ta

import (
	"math"
	"strconv"
	"testing"

	"ebsn/internal/rng"
)

// TestTopNBatchBitIdenticalToSequential checks the batched exact path
// against issuing the same queries one at a time: same pairs, same
// scores bit for bit, same order — the contract that lets the serving
// coalescer batch concurrent requests transparently.
func TestTopNBatchBitIdenticalToSequential(t *testing.T) {
	src := rng.New(517)
	sc := GetScratch()
	defer PutScratch(sc)
	bsc := GetBatchScratch()
	defer PutBatchScratch(bsc)
	shapes := []struct {
		nx, nu, k, topK int
	}{
		{17, 9, 5, 0},
		{40, 25, 8, 6},
		{64, 31, 16, 10},
		{25, 25, 7, 25},
	}
	for _, sh := range shapes {
		events := randomVecs(src, sh.nx, sh.k, true)
		partners := randomVecs(src, sh.nu, sh.k, true)
		cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: sh.topK, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		f := NewFastIndex(cs)
		for _, nb := range []int{0, 1, 2, 3, 4, 5, 8, 9} {
			users := randomVecs(src, nb, sh.k, true)
			exclude := make([]int32, nb)
			for j := range exclude {
				exclude[j] = int32(src.Intn(sh.nu+2)) - 1
			}
			n := 1 + src.Intn(len(cs.Pairs)+3)
			res, stats := f.TopNBatch(BatchQuery{Users: users, N: n, Exclude: exclude}, bsc)
			if len(res) != nb || len(stats) != nb {
				t.Fatalf("batch size %d: got %d results, %d stats", nb, len(res), len(stats))
			}
			for j := 0; j < nb; j++ {
				want, _ := f.TopNExcludingScratch(users[j], n, exclude[j], sc)
				resultsBitIdentical(t, want, res[j])
			}
		}
	}
}

// TestTopNBatchTieOrdering constructs deliberate score ties — duplicated
// event rows and duplicated partner rows make distinct pairs score
// exactly equal — and checks the batched path resolves them identically
// to the sequential path (canonical order: score desc, then partner
// asc, then event asc).
func TestTopNBatchTieOrdering(t *testing.T) {
	src := rng.New(518)
	k := 6
	cs := dupRowSet(t, src, k)
	f := NewFastIndex(cs)
	sc := GetScratch()
	defer PutScratch(sc)
	bsc := GetBatchScratch()
	defer PutBatchScratch(bsc)

	users := randomVecs(src, 6, k, true)
	// Identical queries across lanes also force cross-lane determinism.
	copy(users[1], users[0])
	for _, n := range []int{1, 5, 12, len(cs.Pairs)} {
		res, _ := f.TopNBatch(BatchQuery{Users: users, N: n}, bsc)
		for j := range users {
			want, _ := f.TopNExcludingScratch(users[j], n, -1, sc)
			resultsBitIdentical(t, want, res[j])
		}
		// Sanity: the duplicated rows really did create ties (guaranteed
		// only in the full ranking, which contains every duplicate pair).
		if n == len(cs.Pairs) {
			tied := false
			for i := 1; i < len(res[0]); i++ {
				if math.Float32bits(res[0][i].Score) == math.Float32bits(res[0][i-1].Score) {
					tied = true
				}
			}
			if !tied {
				t.Fatal("tie construction failed: no equal adjacent scores in top results")
			}
		}
	}
}

// TestTopNBatchPrecomputedAff checks that handing the event-affinity
// panel in via BatchQuery.EventAff (the sharded engine's prepass) is
// bit-identical to letting TopNBatch compute it.
func TestTopNBatchPrecomputedAff(t *testing.T) {
	src := rng.New(519)
	k := 9
	events := randomVecs(src, 30, k, true)
	partners := randomVecs(src, 20, k, true)
	cs, err := BuildCandidates(events, partners, BuildConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFastIndex(cs)
	bsc := GetBatchScratch()
	defer PutBatchScratch(bsc)
	affBsc := GetBatchScratch()
	defer PutBatchScratch(affBsc)

	for _, quantized := range []bool{false, true} {
		if quantized {
			cs.PackQuantized()
		}
		users := randomVecs(src, 7, k, true)
		res, _ := f.TopNBatch(BatchQuery{Users: users, N: 8, Quantized: quantized}, bsc)
		want := make([][]Result, len(res))
		for j := range res {
			want[j] = append([]Result(nil), res[j]...)
		}
		aff := cs.EventAffinityPanel(users, quantized, affBsc)
		res2, _ := f.TopNBatch(BatchQuery{Users: users, N: 8, EventAff: aff, Quantized: quantized}, bsc)
		for j := range want {
			resultsBitIdentical(t, want[j], res2[j])
		}
	}
}

// TestQuantizedMatchesBatchQuantized checks the single-query quantized
// path and the batched quantized path agree bit for bit — both route
// through the same approximate walk and exact re-rank.
func TestQuantizedMatchesBatchQuantized(t *testing.T) {
	src := rng.New(520)
	k := 12
	events := randomVecs(src, 50, k, true)
	partners := randomVecs(src, 40, k, true)
	cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs.PackQuantized()
	f := NewFastIndex(cs)
	sc := GetScratch()
	defer PutScratch(sc)
	bsc := GetBatchScratch()
	defer PutBatchScratch(bsc)

	users := randomVecs(src, 9, k, true)
	exclude := make([]int32, len(users))
	for j := range exclude {
		exclude[j] = int32(src.Intn(len(partners)+2)) - 1
	}
	res, _ := f.TopNBatch(BatchQuery{Users: users, N: 7, Exclude: exclude, Quantized: true}, bsc)
	for j := range users {
		want, _ := f.TopNExcludingQuantizedScratch(users[j], 7, exclude[j], sc)
		resultsBitIdentical(t, want, res[j])
	}
}

// TestQuantizedSurvivorScoresExact checks that every result the
// quantized path returns carries the exact float32 score the exact path
// assigns the same pair — the re-rank must leave no approximate scores
// in the output.
func TestQuantizedSurvivorScoresExact(t *testing.T) {
	src := rng.New(521)
	k := 10
	events := randomVecs(src, 60, k, true)
	partners := randomVecs(src, 45, k, true)
	cs, err := BuildCandidates(events, partners, BuildConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs.PackQuantized()
	f := NewFastIndex(cs)
	sc := GetScratch()
	defer PutScratch(sc)

	for q := 0; q < 10; q++ {
		userVec := randomVecs(src, 1, k, true)[0]
		got, _ := f.TopNExcludingQuantizedScratch(userVec, 10, -1, sc)
		exact := referenceTopNExcluding(f, userVec, len(cs.Pairs), -1)
		byPair := make(map[[2]int32]float32, len(exact))
		for _, r := range exact {
			byPair[[2]int32{r.Event, r.Partner}] = r.Score
		}
		for i, r := range got {
			want, ok := byPair[[2]int32{r.Event, r.Partner}]
			if !ok {
				t.Fatalf("result %d: pair (%d,%d) not in exact ranking", i, r.Event, r.Partner)
			}
			if math.Float32bits(want) != math.Float32bits(r.Score) {
				t.Fatalf("result %d: score %v, exact path scores the pair %v", i, r.Score, want)
			}
		}
	}
}

// quantRecallAt10 runs nq quantized queries against the index and
// returns the fraction of exact top-10 pairs the quantized path
// recovered.
func quantRecallAt10(t *testing.T, f *FastIndex, src *rng.Source, k, nq int) float64 {
	t.Helper()
	sc := GetScratch()
	defer PutScratch(sc)
	const n = 10
	hits, total := 0, 0
	for q := 0; q < nq; q++ {
		userVec := randomVecs(src, 1, k, true)[0]
		want, _ := f.TopNExcludingScratch(userVec, n, -1, sc)
		wantSet := make(map[[2]int32]bool, len(want))
		for _, r := range want {
			wantSet[[2]int32{r.Event, r.Partner}] = true
		}
		got, _ := f.TopNExcludingQuantizedScratch(userVec, n, -1, sc)
		for _, r := range got {
			if wantSet[[2]int32{r.Event, r.Partner}] {
				hits++
			}
		}
		total += len(want)
	}
	return float64(hits) / float64(total)
}

// TestQuantizedRecallGate is the CI quality gate for the int8 path:
// recall@10 against the exact ranking must stay at or above 0.99 on a
// serving-scale synthetic space. Deterministic (fixed seeds), so a
// regression in the quantization scheme fails loudly rather than
// shifting a flaky threshold.
func TestQuantizedRecallGate(t *testing.T) {
	if testing.Short() {
		t.Skip("serving-scale space; skipped in -short")
	}
	src := rng.New(522)
	const k = 60
	events := randomVecs(src, 800, k, true)
	partners := randomVecs(src, 1200, k, true)
	cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: 50, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cs.PackQuantized()
	f := NewFastIndex(cs)

	recall := quantRecallAt10(t, f, src, k, 200)
	t.Logf("quantized recall@10 = %.4f over 200 queries, %d pairs", recall, len(cs.Pairs))
	if recall < 0.99 {
		t.Fatalf("quantized recall@10 = %.4f, gate requires >= 0.99", recall)
	}
}

// TestTopNBatchSteadyStateAllocs checks that a warmed batch scratch
// makes batched queries — exact and quantized — allocation-free.
func TestTopNBatchSteadyStateAllocs(t *testing.T) {
	src := rng.New(523)
	const k = 16
	events := randomVecs(src, 100, k, true)
	partners := randomVecs(src, 80, k, true)
	cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs.PackQuantized()
	f := NewFastIndex(cs)
	bsc := GetBatchScratch()
	defer PutBatchScratch(bsc)
	users := randomVecs(src, 8, k, true)

	for _, quantized := range []bool{false, true} {
		q := BatchQuery{Users: users, N: 10, Quantized: quantized}
		f.TopNBatch(q, bsc) // warm the buffers
		allocs := testing.AllocsPerRun(50, func() { f.TopNBatch(q, bsc) })
		if allocs != 0 {
			t.Errorf("quantized=%v: %v allocs per warmed batch, want 0", quantized, allocs)
		}
	}
}

// BenchmarkTopNBatch measures per-user cost of the batched exact path
// across batch widths on the standard benchmark space; b=1 is the
// degenerate batch for comparison against BenchmarkTopNExcluding.
func BenchmarkTopNBatch(b *testing.B) {
	cs := benchSet(b)
	f := NewFastIndex(cs)
	cs.PackQuantized()
	src := rng.New(95)
	queries := randomVecs(src, 256, 60, true)
	for _, quantized := range []bool{false, true} {
		mode := "exact"
		if quantized {
			mode = "quantized"
		}
		for _, nb := range []int{1, 4, 8, 16} {
			b.Run(mode+"/b="+strconv.Itoa(nb), func(b *testing.B) {
				bsc := GetBatchScratch()
				defer PutBatchScratch(bsc)
				users := make([][]float32, nb)
				q := BatchQuery{Users: users, N: 10, Quantized: quantized}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < nb; j++ {
						users[j] = queries[(i*nb+j)%len(queries)]
					}
					f.TopNBatch(q, bsc)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nb), "ns/user")
			})
		}
	}
}

// BenchmarkTopNQuantized measures the single-query quantized path.
func BenchmarkTopNQuantized(b *testing.B) {
	cs := benchSet(b)
	cs.PackQuantized()
	f := NewFastIndex(cs)
	src := rng.New(96)
	queries := randomVecs(src, 256, 60, true)
	sc := GetScratch()
	defer PutScratch(sc)
	f.TopNExcludingQuantizedScratch(queries[0], 10, -1, sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TopNExcludingQuantizedScratch(queries[i%len(queries)], 10, -1, sc)
	}
}
