package ta

import (
	"math"
	"runtime"
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
	bsc := GetScratch()
	defer PutScratch(bsc)
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
	bsc := GetScratch()
	defer PutScratch(bsc)

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
	bsc := GetScratch()
	defer PutScratch(bsc)
	affBsc := GetScratch()
	defer PutScratch(affBsc)

	users := randomVecs(src, 7, k, true)
	res, _ := f.TopNBatch(BatchQuery{Users: users, N: 8}, bsc)
	want := make([][]Result, len(res))
	for j := range res {
		want[j] = append([]Result(nil), res[j]...)
	}
	aff := cs.EventAffinityPanel(users, affBsc)
	res2, _ := f.TopNBatch(BatchQuery{Users: users, N: 8, EventAff: aff}, bsc)
	for j := range want {
		resultsBitIdentical(t, want[j], res2[j])
	}
}

// TestQuantizedMatchesBatchQuantized checks that
// TopNExcludingQuantizedScratch, kept for the benchmark harness, answers
// bit for bit like a lane of the batched path: every query is exact.
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
	bsc := GetScratch()
	defer PutScratch(bsc)

	users := randomVecs(src, 9, k, true)
	exclude := make([]int32, len(users))
	for j := range exclude {
		exclude[j] = int32(src.Intn(len(partners)+2)) - 1
	}
	res, _ := f.TopNBatch(BatchQuery{Users: users, N: 7, Exclude: exclude}, bsc)
	for j := range users {
		want, _ := f.TopNExcludingQuantizedScratch(users[j], 7, exclude[j], sc)
		resultsBitIdentical(t, want, res[j])
	}
}

// TestTopNBatchSteadyStateAllocs checks that a warmed Scratch makes
// every query on it allocation-free: a batch; the three positional
// one-lane spellings; and a live batch, whose lanes scan a delta on the
// same scratch.
func TestTopNBatchSteadyStateAllocs(t *testing.T) {
	src := rng.New(523)
	const k = 16
	events := randomVecs(src, 100, k, true)
	partners := randomVecs(src, 80, k, true)
	cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFastIndex(cs)
	bsc := GetScratch()
	defer PutScratch(bsc)
	users := randomVecs(src, 8, k, true)

	q := BatchQuery{Users: users, N: 10}
	f.TopNBatch(q, bsc) // warm the buffers
	if allocs := testing.AllocsPerRun(50, func() { f.TopNBatch(q, bsc) }); allocs != 0 {
		t.Errorf("%v allocs per warmed batch, want 0", allocs)
	}

	pred := stridePred(len(events), 3)
	d := NewDeltaForSet(cs, 10)
	if err := d.AddEvents(randomVecs(src, 6, k, true)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func(i int)
	}{
		{"TopNExcludingScratch", func(i int) { f.TopNExcludingScratch(users[i%8], 10, int32(i), bsc) }},
		{"TopNExcludingPredScratch", func(i int) { f.TopNExcludingPredScratch(users[i%8], 10, int32(i), pred, bsc) }},
		{"TopNExcludingQuantizedScratch", func(i int) { f.TopNExcludingQuantizedScratch(users[i%8], 10, int32(i), bsc) }},
		{"TopNBatch+Delta", func(i int) {
			excl := [8]int32{int32(i % 80)}
			f.TopNBatch(BatchQuery{Users: users, N: 10, Exclude: excl[:], Delta: d}, bsc)
		}},
	} {
		c.run(0) // warm the buffers
		i := 0
		allocs := testing.AllocsPerRun(50, func() { i++; c.run(i) })
		if allocs != 0 {
			t.Errorf("%s: %v allocs per warmed query, want 0", c.name, allocs)
		}
	}
}

// BenchmarkTopNBatch measures per-user cost of the batched path across
// batch widths on the standard benchmark space; b=1
// is the degenerate batch for comparison against BenchmarkTopNExcluding.
// The "serving" cases run the exact path at the benchmark city's shape —
// 600 events × 11 890 partners at K=60 with top-30 (5%) pruning, top 10 —
// where a lane's fixed walk cost, one linear fill of 11 890 bounds, sits
// beside its share of the partner panel. pops/user is the mean
// SortedAccesses. Every case warms its scratch before the timer starts,
// so allocs/op is the steady state (CI requires 0 at b=16).
func BenchmarkTopNBatch(b *testing.B) {
	cs := benchSet(b)
	f := NewFastIndex(cs)
	src := rng.New(95)
	queries := randomVecs(src, 256, 60, true)
	serving, err := BuildCandidates(randomVecs(src, 600, 60, true), randomVecs(src, 11890, 60, true),
		BuildConfig{TopKEvents: 30, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	fs := NewFastIndex(serving)

	run := func(name string, f *FastIndex, nb int) {
		b.Run(name+"/b="+strconv.Itoa(nb), func(b *testing.B) {
			bsc := GetScratch()
			defer PutScratch(bsc)
			users := make([][]float32, nb)
			q := BatchQuery{Users: users, N: 10}
			fill := func(i int) {
				for j := range users {
					users[j] = queries[(i*nb+j)%len(queries)]
				}
			}
			fill(0)
			f.TopNBatch(q, bsc) // warm the buffers
			pops := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill(i)
				_, stats := f.TopNBatch(q, bsc)
				for _, st := range stats {
					pops += st.SortedAccesses
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nb), "ns/user")
			b.ReportMetric(float64(pops)/float64(b.N*nb), "pops/user")
		})
	}
	for _, nb := range []int{1, 4, 8, 16} {
		run("exact", f, nb)
	}
	for _, nb := range []int{1, 16} {
		run("serving/exact", fs, nb)
	}
}
