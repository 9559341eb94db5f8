package experiments

import (
	"fmt"
	"time"

	"ebsn/internal/core"
	"ebsn/internal/ebsnet"
	"ebsn/internal/eval"
	"ebsn/internal/experiments/fagin"
	"ebsn/internal/ta"
)

// convergenceCheckpoints are the sample-count multiples of BaseSteps at
// which Tables II/III report accuracy. The paper sweeps 1M…15M on a 2.8M
// edge dataset; these multiples cover the same relative range.
var convergenceCheckpoints = []float64{0.25, 0.5, 1, 1.5, 2, 3, 4, 6}

// Tab2 reproduces Table II: Accuracy@5/@10 of the cold-start event task
// as a function of the sample count N, for GEM-A, GEM-P and PTE. One
// model per variant is trained incrementally with a fixed learning rate
// (the paper's α = 0.05) and evaluated at each checkpoint. Each cell
// reports the best value reached within the budget — the standard
// early-stopping-on-validation reading of a convergence table, and what
// makes the paper's rows flatline once a model converges rather than
// oscillate with SGD noise.
func Tab2(env *Env, opts Options) (*Table, error) {
	return convergenceTable(env, opts, false,
		"Table II: convergence of cold-start event recommendation ("+env.Cfg.Name+")")
}

// Tab3 reproduces Table III: the same sweep for the event-partner task.
func Tab3(env *Env, opts Options) (*Table, error) {
	return convergenceTable(env, opts, true,
		"Table III: convergence of event-partner recommendation ("+env.Cfg.Name+")")
}

func convergenceTable(env *Env, opts Options, partner bool, title string) (*Table, error) {
	opts.fill()
	variants := []struct {
		name   string
		preset core.Config
	}{
		{"GEM-A", core.GEMAConfig()},
		{"GEM-P", core.GEMPConfig()},
		{"PTE", core.PTEConfig()},
	}
	type colPair struct{ at5, at10 []float64 }
	cols := make([]colPair, len(variants))

	ecfg := opts.evalConfig()
	ecfg.Ns = []int{5, 10}
	for vi, v := range variants {
		cfg := opts.gemConfig(v.preset, 0) // fixed learning rate, as in the paper
		m, err := core.NewModel(env.Graphs, cfg)
		if err != nil {
			return nil, err
		}
		var done int64
		for _, mult := range convergenceCheckpoints {
			target := int64(mult * float64(opts.BaseSteps))
			m.TrainSteps(target - done)
			done = target
			var res eval.Result
			if partner {
				res, err = eval.PartnerRecommendation(m, env.Dataset, env.Split, env.TriplesTest, ebsnet.Test, ecfg)
			} else {
				res, err = eval.EventRecommendation(m, env.Dataset, env.Split, ebsnet.Test, ecfg)
			}
			if err != nil {
				return nil, fmt.Errorf("%s at N=%d: %w", v.name, done, err)
			}
			best5, best10 := res.MustAt(5), res.MustAt(10)
			if k := len(cols[vi].at5); k > 0 {
				if cols[vi].at5[k-1] > best5 {
					best5 = cols[vi].at5[k-1]
				}
				if cols[vi].at10[k-1] > best10 {
					best10 = cols[vi].at10[k-1]
				}
			}
			cols[vi].at5 = append(cols[vi].at5, best5)
			cols[vi].at10 = append(cols[vi].at10, best10)
		}
	}

	t := &Table{Title: title, Header: []string{"N"}}
	for _, v := range variants {
		t.Header = append(t.Header, v.name+"@5", v.name+"@10")
	}
	for ci, mult := range convergenceCheckpoints {
		row := []string{fmt.Sprintf("%d", int64(mult*float64(opts.BaseSteps)))}
		for vi := range variants {
			row = append(row, Cell(cols[vi].at5[ci]), Cell(cols[vi].at10[ci]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Tab4 reproduces Table IV: the impact of the embedding dimension K on
// Accuracy@10 for both tasks.
func Tab4(env *Env, opts Options, ks []int) (*Table, error) {
	opts.fill()
	if len(ks) == 0 {
		ks = []int{20, 40, 60, 80, 100}
	}
	t := &Table{
		Title: "Table IV: impact of the dimension K (" + env.Cfg.Name + ", acc@10)",
		Header: []string{"K",
			"GEM-A(event)", "GEM-P(event)", "PTE(event)",
			"GEM-A(partner)", "GEM-P(partner)", "PTE(partner)"},
	}
	ecfg := opts.evalConfig()
	ecfg.Ns = []int{10}
	variants := []struct {
		preset core.Config
		budget int64
	}{
		{core.GEMAConfig(), opts.budgetGEMA()},
		{core.GEMPConfig(), opts.budgetGEMP()},
		{core.PTEConfig(), opts.budgetPTE()},
	}
	for _, k := range ks {
		o := opts
		o.K = k
		event := make([]string, len(variants))
		partner := make([]string, len(variants))
		for vi, v := range variants {
			m, err := o.TrainGEM(env.Graphs, v.preset, v.budget)
			if err != nil {
				return nil, err
			}
			res, err := eval.EventRecommendation(m, env.Dataset, env.Split, ebsnet.Test, ecfg)
			if err != nil {
				return nil, err
			}
			pres, err := eval.PartnerRecommendation(m, env.Dataset, env.Split, env.TriplesTest, ebsnet.Test, ecfg)
			if err != nil {
				return nil, err
			}
			event[vi] = Cell(res.MustAt(10))
			partner[vi] = Cell(pres.MustAt(10))
		}
		t.AddRow(append(append([]string{fmt.Sprintf("%d", k)}, event...), partner...)...)
	}
	return t, nil
}

// Tab5 reproduces Table V: the impact of the Geometric density λ on
// GEM-A, for both tasks at n ∈ {5, 10, 20}.
func Tab5(env *Env, opts Options, lambdas []float64) (*Table, error) {
	opts.fill()
	if len(lambdas) == 0 {
		lambdas = []float64{50, 100, 150, 200, 500}
	}
	t := &Table{
		Title: "Table V: impact of the parameter lambda (" + env.Cfg.Name + ")",
		Header: []string{"lambda",
			"event@5", "event@10", "event@20",
			"partner@5", "partner@10", "partner@20"},
	}
	ecfg := opts.evalConfig()
	ecfg.Ns = []int{5, 10, 20}
	for _, lambda := range lambdas {
		preset := core.GEMAConfig()
		preset.Lambda = lambda
		m, err := opts.TrainGEM(env.Graphs, preset, opts.budgetGEMA())
		if err != nil {
			return nil, err
		}
		res, err := eval.EventRecommendation(m, env.Dataset, env.Split, ebsnet.Test, ecfg)
		if err != nil {
			return nil, err
		}
		pres, err := eval.PartnerRecommendation(m, env.Dataset, env.Split, env.TriplesTest, ebsnet.Test, ecfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", lambda),
			Cell(res.MustAt(5)), Cell(res.MustAt(10)), Cell(res.MustAt(20)),
			Cell(pres.MustAt(5)), Cell(pres.MustAt(10)), Cell(pres.MustAt(20)))
	}
	return t, nil
}

// onlineSetup trains GEM-A and builds the transformed candidate space
// over (test events × all users), shared by Tab6 and Fig7.
type onlineSetup struct {
	model    *core.Model
	events   [][]float32 // test-event vectors
	partners [][]float32 // all user vectors
	eventIDs []int32
	queries  []int32 // sample of target users to issue queries for
}

func newOnlineSetup(env *Env, opts Options, numQueries int) (*onlineSetup, error) {
	opts.fill()
	m, err := opts.TrainGEM(env.Graphs, core.GEMAConfig(), opts.budgetGEMA())
	if err != nil {
		return nil, err
	}
	s := &onlineSetup{model: m}
	for _, x := range env.Split.TestEvents {
		s.events = append(s.events, m.EventVec(x))
		s.eventIDs = append(s.eventIDs, x)
	}
	for u := 0; u < env.Dataset.NumUsers; u++ {
		s.partners = append(s.partners, m.UserVec(int32(u)))
	}
	stride := env.Dataset.NumUsers / numQueries
	if stride < 1 {
		stride = 1
	}
	for u := 0; u < env.Dataset.NumUsers && len(s.queries) < numQueries; u += stride {
		s.queries = append(s.queries, int32(u))
	}
	return s, nil
}

// Tab6 reproduces Table VI: average online recommendation time of GEM-TA
// vs GEM-BF for n ∈ {5, 10, 15, 20} over the full (unpruned) transformed
// space, plus the fraction of candidate pairs TA evaluates.
func Tab6(env *Env, opts Options, numQueries int) (*Table, error) {
	if numQueries <= 0 {
		numQueries = 50
	}
	setup, err := newOnlineSetup(env, opts, numQueries)
	if err != nil {
		return nil, err
	}
	set, err := ta.BuildCandidates(setup.events, setup.partners, ta.BuildConfig{Workers: opts.Threads})
	if err != nil {
		return nil, err
	}
	fast := ta.NewFastIndex(set)
	// The literal Fagin index stores K+1 sorted lists plus coordinates —
	// ~0.5 KB per pair at K=60 — so it is only built when it fits
	// comfortably; the comparison column reads "-" otherwise.
	var faginIdx *fagin.Index
	if len(set.Pairs) <= 2_000_000 {
		faginIdx = fagin.New(set, 0)
	}
	var sc ta.Scratch
	var fsc fagin.Scratch

	t := &Table{
		Title: fmt.Sprintf("Table VI: online recommendation efficiency (%s, %d pairs, %d queries)",
			env.Cfg.Name, len(set.Pairs), len(setup.queries)),
		Header: []string{"n", "GEM-TA", "GEM-BF", "Fagin-TA", "TA/BF", "TA access frac"},
	}
	for _, n := range []int{5, 10, 15, 20} {
		var taDur, bfDur, faginDur time.Duration
		var frac float64
		for _, u := range setup.queries {
			uv := setup.model.UserVec(u)
			start := time.Now()
			_, stats := fast.TopNBatch(ta.BatchQuery{Users: [][]float32{uv}, N: n}, &sc)
			taDur += time.Since(start)
			frac += stats[0].AccessFraction()

			start = time.Now()
			set.BruteForceTopN(uv, n)
			bfDur += time.Since(start)

			if faginIdx != nil {
				start = time.Now()
				faginIdx.TopN(uv, n, &fsc)
				faginDur += time.Since(start)
			}
		}
		q := len(setup.queries)
		faginCell := "-"
		if faginIdx != nil {
			faginCell = (faginDur / time.Duration(q)).Round(time.Microsecond).String()
		}
		t.AddRow(fmt.Sprintf("%d", n),
			(taDur / time.Duration(q)).Round(time.Microsecond).String(),
			(bfDur / time.Duration(q)).Round(time.Microsecond).String(),
			faginCell,
			fmt.Sprintf("%.2f", float64(taDur)/float64(bfDur)),
			fmt.Sprintf("%.1f%%", frac/float64(q)*100))
	}
	return t, nil
}

// Fig7 reproduces Figure 7: per-partner top-k pruning swept from 1% to
// 10% of the test events — (a) query time for TA and BF, (b) the
// approximation ratio of the pruned space (overlap of its top-10 with the
// full space's top-10).
func Fig7(env *Env, opts Options, numQueries int) (*Table, error) {
	if numQueries <= 0 {
		numQueries = 30
	}
	setup, err := newOnlineSetup(env, opts, numQueries)
	if err != nil {
		return nil, err
	}
	full, err := ta.BuildCandidates(setup.events, setup.partners, ta.BuildConfig{Workers: opts.Threads})
	if err != nil {
		return nil, err
	}
	// Full-space reference top-10 per query user.
	const topN = 10
	reference := make([][]ta.Result, len(setup.queries))
	for i, u := range setup.queries {
		reference[i] = full.BruteForceTopN(setup.model.UserVec(u), topN)
	}

	t := &Table{
		Title:  fmt.Sprintf("Figure 7: pruning the candidate space (%s, top-%d)", env.Cfg.Name, topN),
		Header: []string{"k(%events)", "pairs", "GEM-TA", "GEM-BF", "approx ratio"},
	}
	for _, pct := range []int{1, 2, 4, 6, 8, 10} {
		k := len(setup.events) * pct / 100
		if k < 1 {
			k = 1
		}
		set, err := ta.BuildCandidates(setup.events, setup.partners, ta.BuildConfig{TopKEvents: k, Workers: opts.Threads})
		if err != nil {
			return nil, err
		}
		idx := ta.NewFastIndex(set)
		var sc ta.Scratch
		var taDur, bfDur time.Duration
		var overlap, total int
		for i, u := range setup.queries {
			uv := setup.model.UserVec(u)
			start := time.Now()
			lanes, _ := idx.TopNBatch(ta.BatchQuery{Users: [][]float32{uv}, N: topN}, &sc)
			res := lanes[0]
			taDur += time.Since(start)
			start = time.Now()
			set.BruteForceTopN(uv, topN)
			bfDur += time.Since(start)

			have := make(map[[2]int32]bool, len(res))
			for _, r := range res {
				have[[2]int32{r.Event, r.Partner}] = true
			}
			for _, r := range reference[i] {
				total++
				if have[[2]int32{r.Event, r.Partner}] {
					overlap++
				}
			}
		}
		q := len(setup.queries)
		t.AddRow(fmt.Sprintf("%d%%", pct),
			fmt.Sprintf("%d", len(set.Pairs)),
			(taDur / time.Duration(q)).Round(time.Microsecond).String(),
			(bfDur / time.Duration(q)).Round(time.Microsecond).String(),
			fmt.Sprintf("%.3f", float64(overlap)/float64(total)))
	}
	return t, nil
}
