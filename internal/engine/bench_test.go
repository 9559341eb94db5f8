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

// BenchmarkEngineSearchInto measures the sharded single-query hot path
// with caller-managed buffers. The allocs/op column is the regression
// gate: steady state must report 0 allocs/op for every shard count (the
// multi-shard fan-out reuses pre-built closures, pooled batch scratch and
// the caller's result and stats buffers). critpath-ns/op is the mean
// Stats.CriticalPath — prepass + slowest shard + merge — which is what a
// host with a core per shard would see when wall ns/op cannot.
func BenchmarkEngineSearchInto(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			e, queries := benchEngine(b, shards)
			out := make([]ta.Result, 0, 10)
			ss := make([]ShardStats, shards)
			var err error
			for i := 0; i < 4; i++ { // warm the pooled fan-out scratch
				if out, _, err = e.SearchInto(queries[i], 10, int32(i), out, ss); err != nil {
					b.Fatal(err)
				}
			}
			var st Stats
			var critical time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, st, err = e.SearchInto(queries[i%len(queries)], 10, int32(i)%4000, out, ss)
				if err != nil {
					b.Fatal(err)
				}
				critical += st.CriticalPath
			}
			b.ReportMetric(float64(critical.Nanoseconds())/float64(b.N), "critpath-ns/op")
		})
	}
}

// BenchmarkEngineSearchBatch measures per-user cost of the batched
// fan-out across batch widths.
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
					if _, _, err := e.SearchBatch(users, 10, exclude); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nb), "ns/user")
			})
		}
	}
}
