package ta

import (
	"runtime"
	"strconv"
	"testing"

	"ebsn/internal/rng"
)

// benchSet builds the standard benchmark candidate space: 2000 events ×
// 5000 partners at K=60 with top-50 pruning — 250k pairs, comfortably
// above the 100k floor the build-scaling acceptance criterion asks for.
func benchSet(b *testing.B) *CandidateSet {
	b.Helper()
	src := rng.New(91)
	events := randomVecs(src, 2000, 60, true)
	partners := randomVecs(src, 5000, 60, true)
	cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: 50, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// BenchmarkTopNExcluding measures the serving hot path over a cold cache
// of 256 rotating query vectors. "pooled" is the plain TopN (scratch
// from the sync.Pool, results allocated for the caller); "scratch" is
// the caller-managed variant with rotating excluded partners, which
// must be allocation-free once the scratch is warm.
func BenchmarkTopNExcluding(b *testing.B) {
	cs := benchSet(b)
	f := NewFastIndex(cs)
	src := rng.New(93)
	queries := randomVecs(src, 256, 60, true)
	np := int32(len(cs.Partners))

	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.TopN(queries[i%len(queries)], 10)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		sc := GetScratch()
		defer PutScratch(sc)
		f.TopNExcludingScratch(queries[0], 10, 0, sc) // warm the buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.TopNExcludingScratch(queries[i%len(queries)], 10, int32(i)%np, sc)
		}
	})
}

// BenchmarkSearchPred times a constrained top-10 query at event
// selectivity 50/25/10/5% two ways: "pushdown" hands the predicate to the
// walk, "postfilter" re-walks unconstrained at ×4 depth until ten allowed
// pairs surface (postFilterSearch). pairs/op is the mean RandomAccesses;
// TestPredicatePushDownScoresFewerPairs gates the same counts.
func BenchmarkSearchPred(b *testing.B) {
	cs := benchSet(b)
	f := NewFastIndex(cs)
	queries := randomVecs(rng.New(93), 256, 60, true)
	np := int32(len(cs.Partners))
	sc := GetScratch()
	defer PutScratch(sc)
	dst := make([]Result, 0, 10)
	for _, stride := range []int{2, 4, 10, 20} {
		pred := stridePred(len(cs.Events), stride)
		sel := "sel=" + strconv.Itoa(100/stride)
		run := func(name string, search func(i int) SearchStats) {
			b.Run(sel+"/"+name, func(b *testing.B) {
				search(0) // warm the scratch
				pairs := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pairs += search(i).RandomAccesses
				}
				b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
			})
		}
		run("pushdown", func(i int) SearchStats {
			_, st := f.Search(Query{Vec: queries[i%len(queries)], N: 10, Exclude: int32(i) % np, Pred: pred}, sc)
			return st
		})
		run("postfilter", func(i int) SearchStats {
			var st SearchStats
			dst, st = postFilterSearch(f, queries[i%len(queries)], 10, int32(i)%np, pred, sc, dst)
			return st
		})
	}
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

// BenchmarkBuildCandidates measures candidate-set construction (pruning
// pass + packing) across worker counts; near-linear scaling is an
// acceptance criterion of the parallel build.
func BenchmarkBuildCandidates(b *testing.B) {
	src := rng.New(92)
	events := randomVecs(src, 2000, 60, true)
	partners := randomVecs(src, 5000, 60, true)
	for _, w := range benchWorkerCounts() {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: 50, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewFastIndex measures the grouped-bound index build (parallel
// counting sort + offline bounds) across worker counts.
func BenchmarkNewFastIndex(b *testing.B) {
	cs := benchSet(b)
	for _, w := range benchWorkerCounts() {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewFastIndexWorkers(cs, w)
			}
		})
	}
}

// BenchmarkDeltaAddEvents times live ingest into a delta over 11 890
// partner rows (the benchmark city's user count) at K=60 with top-30
// pruning: b = 1 is one AddEvent, b = 16 one POST /v1/ingest batch,
// whose 16 score rows come from four 4-lane panel passes instead of
// sixteen single-lane ones. The delta is emptied between iterations
// (outside the timer) so every op lands in the same state.
func BenchmarkDeltaAddEvents(b *testing.B) {
	src := rng.New(95)
	partners := randomVecs(src, 11890, 60, true)
	d, err := NewDelta(partners, 30)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 16} {
		vecs := randomVecs(src, n, 60, true)
		b.Run("b="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.AddEvents(vecs); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				d.Advance(d.View())
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/event")
		})
	}
}
