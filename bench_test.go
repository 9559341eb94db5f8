package ebsn

// One benchmark per table and figure of the paper's evaluation section,
// plus the ablation benches DESIGN.md §6 calls out. Each experiment bench
// runs the corresponding internal/experiments harness at a reduced scale
// so `go test -bench=.` finishes in minutes; `ebsn-bench -exp` runs the
// same experiments at full scale and prints the paper-style tables
// recorded in EXPERIMENTS.md. Accuracy results surface as custom benchmark
// metrics (acc@10 etc.) so regressions show up in benchstat diffs. Serving
// performance is measured by `go run ./benchmark`, not here; the one
// facade microbenchmark, BenchmarkTopEvents, gates the event ranker's
// allocations.

import (
	"fmt"
	"strconv"
	"testing"

	"ebsn/internal/core"
	"ebsn/internal/datagen"
	"ebsn/internal/ebsnet"
	"ebsn/internal/eval"
	"ebsn/internal/experiments"
)

var benchEnv *experiments.Env

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	if benchEnv == nil {
		env, err := experiments.NewEnv(datagen.TinyConfig(23))
		if err != nil {
			b.Fatal(err)
		}
		benchEnv = env
	}
	return benchEnv
}

func benchOptions() experiments.Options {
	return experiments.Options{
		K:         16,
		BaseSteps: 150_000,
		Threads:   4,
		EvalCases: 400,
		Ns:        []int{5, 10},
		Seed:      23,
	}
}

// reportAccuracy surfaces a named table cell as a benchmark metric.
func reportAccuracy(b *testing.B, tbl *experiments.Table, rowLabel string, col int, metric string) {
	b.Helper()
	for _, row := range tbl.Rows {
		if row[0] == rowLabel {
			if v, err := strconv.ParseFloat(row[col], 64); err == nil {
				b.ReportMetric(v, metric)
			}
			return
		}
	}
}

func BenchmarkFig3ColdStartEventRec(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Fig3(env, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportAccuracy(b, tbl, "GEM-A", 2, "gemA_acc@10")
		reportAccuracy(b, tbl, "PTE", 2, "pte_acc@10")
	}
}

func BenchmarkFig4EventPartnerFriends(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Fig4(env, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportAccuracy(b, tbl, "GEM-A", 2, "gemA_acc@10")
		reportAccuracy(b, tbl, "CFAPR-E", 2, "cfapr_acc@10")
	}
}

func BenchmarkFig5EventPartnerPotential(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Fig5(env, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportAccuracy(b, tbl, "GEM-A", 2, "gemA_acc@10")
	}
}

func BenchmarkTable2Convergence(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tab2(env, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ConvergencePartner(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tab3(env, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4DimensionK(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tab4(env, benchOptions(), []int{8, 16, 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Lambda(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tab5(env, benchOptions(), []float64{50, 200}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Scalability(b *testing.B) {
	env := benchEnvironment(b)
	opts := benchOptions()
	opts.BaseSteps = 400_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(env, opts, []int{1, 2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6OnlineEfficiency(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tab6(env, benchOptions(), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Pruning(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(env, benchOptions(), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §6) ---------------------------------

// ablate trains one GEM config on the bench environment and reports the
// resulting cold-start accuracy as a metric.
func ablate(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	env := benchEnvironment(b)
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		preset := core.GEMAConfig()
		mutate(&preset)
		m, err := opts.TrainGEM(env.Graphs, preset, opts.BaseSteps)
		if err != nil {
			b.Fatal(err)
		}
		ecfg := eval.DefaultConfig()
		ecfg.Ns = []int{10}
		ecfg.MaxCases = opts.EvalCases
		res, err := eval.EventRecommendation(m, env.Dataset, env.Split, ebsnet.Test, ecfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MustAt(10), "acc@10")
	}
}

// BenchmarkAblationBidirectional isolates Eqn. 4's bidirectional negative
// sampling: run with the degree sampler so only directionality differs.
func BenchmarkAblationBidirectional(b *testing.B) {
	for _, bidir := range []bool{true, false} {
		b.Run(fmt.Sprintf("bidirectional=%v", bidir), func(b *testing.B) {
			ablate(b, func(c *core.Config) {
				c.Sampler = core.SamplerDegree
				c.Bidirectional = bidir
			})
		})
	}
}

// BenchmarkAblationGraphSampling isolates Algorithm 2's edge-proportional
// graph selection against PTE-style uniform selection.
func BenchmarkAblationGraphSampling(b *testing.B) {
	for _, gs := range []core.GraphSampling{core.GraphProportional, core.GraphUniform} {
		b.Run("graphs="+gs.String(), func(b *testing.B) {
			ablate(b, func(c *core.Config) {
				c.Sampler = core.SamplerDegree
				c.GraphSampling = gs
			})
		})
	}
}

// BenchmarkAblationReLU isolates the paper's rectifier projection. The
// non-negative variant collapses (see DESIGN.md §2 and the Config doc):
// its acc@10 metric lands at chance while the signed variant learns.
func BenchmarkAblationReLU(b *testing.B) {
	for _, nn := range []bool{false, true} {
		b.Run(fmt.Sprintf("nonNegative=%v", nn), func(b *testing.B) {
			ablate(b, func(c *core.Config) { c.NonNegative = nn })
		})
	}
}

// BenchmarkAblationSampler compares all four noise samplers end to end.
func BenchmarkAblationSampler(b *testing.B) {
	for _, s := range []core.SamplerKind{core.SamplerUniform, core.SamplerDegree, core.SamplerAdaptive} {
		b.Run("sampler="+s.String(), func(b *testing.B) {
			ablate(b, func(c *core.Config) { c.Sampler = s })
		})
	}
}

// BenchmarkAblationAdaptiveExactVsApprox compares training throughput of
// the exact Eqn. 6 sampler against Algorithm 1's approximation. The exact
// form is O(|V|·K) per draw and exists only for this comparison.
func BenchmarkAblationAdaptiveExactVsApprox(b *testing.B) {
	env := benchEnvironment(b)
	for _, s := range []core.SamplerKind{core.SamplerAdaptive, core.SamplerAdaptiveExact} {
		b.Run("sampler="+s.String(), func(b *testing.B) {
			preset := core.GEMAConfig()
			preset.Sampler = s
			preset.K = 16
			preset.Seed = 23
			m, err := core.NewModel(env.Graphs, preset)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TrainSteps(100)
			}
		})
	}
}

// BenchmarkTrainThroughput measures raw gradient steps per second for the
// production configuration (GEM-A, K=60) at 1/2/4/8 Hogwild threads: the
// training thread curve. Steps/s stops scaling at the host's core count.
func BenchmarkTrainThroughput(b *testing.B) {
	env := benchEnvironment(b)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			cfg := core.GEMAConfig()
			cfg.Threads = threads
			cfg.Seed = 23
			m, err := core.NewModel(env.Graphs, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TrainSteps(10_000)
			}
			b.ReportMetric(float64(10_000*b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// BenchmarkTopEvents measures the cold-event ranker on the shared tiny
// fixture: b=1 is one TopEvents call, b=16 one 16-lane TopEventsBatch
// panel. CI gates both at their allocs/op: the result slice per lane,
// plus the batch's lane vectors and result headers.
func BenchmarkTopEvents(b *testing.B) {
	rec := tinyRecommender(b)
	nu := rec.Dataset().NumUsers
	for _, lanes := range []int{1, 16} {
		b.Run(fmt.Sprintf("b=%d", lanes), func(b *testing.B) {
			users := make([]int32, lanes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range users {
					users[j] = int32((i*lanes + j) % nu)
				}
				var err error
				if lanes == 1 {
					_, err = rec.TopEvents(users[0], 10)
				} else {
					_, err = rec.TopEventsBatch(users, 10)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScoreTriple measures the Eqn. 8 scoring hot path.
func BenchmarkScoreTriple(b *testing.B) {
	env := benchEnvironment(b)
	cfg := core.GEMAConfig()
	cfg.Seed = 23
	m, err := core.NewModel(env.Graphs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.TrainSteps(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += m.ScoreTriple(int32(i%100), int32((i+7)%100), int32(i%50))
	}
	_ = sink
}
