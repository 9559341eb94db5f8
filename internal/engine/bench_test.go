package engine

import (
	"strconv"
	"testing"
	"time"

	"ebsn/internal/rng"
	"ebsn/internal/ta"
)

// benchSpace draws the standard engine benchmark space: 1000 events ×
// 4000 partners at K=32, plus 128 query vectors.
func benchSpace() (events, partners, queries [][]float32) {
	src := rng.New(71)
	events = randomVecs(src, 1000, 32)
	partners = randomVecs(src, 4000, 32)
	return events, partners, randomVecs(src, 128, 32)
}

// benchConfig is the standard benchmark engine: top-40 pruning, 4 build
// workers.
func benchConfig(shards int) Config {
	return Config{Shards: shards, TopKEvents: 40, Workers: 4}
}

// benchEngine builds the standard benchmark engine over benchSpace.
func benchEngine(b *testing.B, shards int) (*Engine, [][]float32) {
	b.Helper()
	events, partners, queries := benchSpace()
	e, err := Build(events, partners, benchConfig(shards))
	if err != nil {
		b.Fatal(err)
	}
	return e, queries
}

// BenchmarkEngineBringUp measures the two ways a serving engine comes
// up: "rebuild" builds it from the raw vectors, "map" opens the artifact
// that build wrote. With -benchmem, B/op is each path's heap cost.
func BenchmarkEngineBringUp(b *testing.B) {
	events, partners, _ := benchSpace()
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(events, partners, benchConfig(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		built, _ := benchEngine(b, 1)
		path := saveEngineArtifact(b, b.TempDir(), built, 42)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := OpenArtifact(path, 42)
			if err != nil {
				b.Fatal(err)
			}
			e.Artifact().Close()
		}
	})
}

// BenchmarkEngineSearch measures the one-lane Search that every facade
// query and the live verb's base tier take, with caller-managed buffers.
// The allocs/op column is the regression gate: steady state must report
// 0 allocs/op for every shard count (the multi-shard fan-out reuses
// pre-built closures, pooled batch scratch and the caller's result and
// stats buffers). critpath-ns/op is the mean Stats.CriticalPath —
// prepass + slowest shard + merge — which is what a host with a core per
// shard would see when wall ns/op cannot.
func BenchmarkEngineSearch(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			e, queries := benchEngine(b, shards)
			benchSearch(b, e, queries)
		})
	}
}

// benchSearch runs the steady-state one-lane Search loop of
// BenchmarkEngineSearch{,Mapped} on a built or mapped engine.
func benchSearch(b *testing.B, e *Engine, queries [][]float32) {
	var lane [1][]float32
	var excl [1]int32
	var outs [1][]ta.Result
	out := make([]ta.Result, 0, 10)
	ss := make([]ShardStats, e.Shards())
	search := func(i int) (st Stats) {
		lane[0], excl[0] = queries[i%len(queries)], int32(i)%4000
		var err error
		if out, st, err = e.Search(lane[:], excl[:], 10, nil, nil, out, outs[:], ss); err != nil {
			b.Fatal(err)
		}
		return st
	}
	for i := 0; i < 4; i++ { // warm the pooled fan-out scratch
		search(i)
	}
	var critical time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		critical += search(i).CriticalPath
	}
	b.ReportMetric(float64(critical.Nanoseconds())/float64(b.N), "critpath-ns/op")
}

// liveLane builds a one-shard engine over nPartners partners and
// nEvents events at K=60, pruned to top 30 per partner, with a delta of
// deltaEvents events × top-30 partners, and returns its live query: a
// one-lane Search, under pred (nil allows all; otherwise it covers the
// base events and then the delta's), of the i-th partner's own row
// excluding that partner, as a serving query is a model user's row
// excluding the user. The caller buffers are warmed, so a steady-state
// call allocates nothing.
func liveLane(tb testing.TB, nPartners, nEvents, deltaEvents int) func(i int, pred ta.EventPredicate) Stats {
	src := rng.New(97)
	partners := randomVecs(src, nPartners, 60)
	e, err := Build(randomVecs(src, nEvents, 60), partners, Config{Shards: 1, TopKEvents: 30, Workers: 4})
	if err != nil {
		tb.Fatal(err)
	}
	d, err := e.NewDelta(30)
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.AddEvents(randomVecs(src, deltaEvents, 60)); err != nil {
		tb.Fatal(err)
	}
	var lane [1][]float32
	var excl [1]int32
	var outs [1][]ta.Result
	out := make([]ta.Result, 0, 10)
	ss := make([]ShardStats, 1)
	search := func(i int, pred ta.EventPredicate) (st Stats) {
		u := (i * 7919) % len(partners)
		lane[0], excl[0] = partners[u], int32(u)
		if out, st, err = e.Search(lane[:], excl[:], 10, pred, d, out, outs[:], ss); err != nil {
			tb.Fatal(err)
		}
		return st
	}
	for i := 0; i < 4; i++ { // warm the pooled fan-out scratch
		search(i, nil)
	}
	return search
}

// BenchmarkEngineSearchLive measures a live query (liveLane) at the
// live-churn shape: 11 890 partners, a 600-event base pruned to top 30
// (5%), and a full delta of 128 events × top-30 partners (3 840 pairs).
// The allocs/op column is the CI gate (0 with warm buffers), and
// TestLiveSearchSteadyStateAllocs its tier-1 twin; random/op is the mean
// count of pairs scored, base walk and delta scan together.
func BenchmarkEngineSearchLive(b *testing.B) {
	search := liveLane(b, 11890, 600, 128)
	random := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		random += search(i, nil).Agg.RandomAccesses
	}
	b.ReportMetric(float64(random)/float64(b.N), "random/op")
}

// BenchmarkEngineSearchBatch measures per-user cost of a many-lane
// Search across batch widths.
func BenchmarkEngineSearchBatch(b *testing.B) {
	for _, shards := range []int{1, 4} {
		e, queries := benchEngine(b, shards)
		for _, nb := range []int{4, 8} {
			b.Run("shards="+strconv.Itoa(shards)+"/b="+strconv.Itoa(nb), func(b *testing.B) {
				users := make([][]float32, nb)
				exclude := make([]int32, nb)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < nb; j++ {
						users[j] = queries[(i*nb+j)%len(queries)]
						exclude[j] = int32((i*nb + j) % 4000)
					}
					if _, _, err := e.Search(users, exclude, 10, nil, nil, nil, nil, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nb), "ns/user")
			})
		}
	}
}
