// ebsn-bench regenerates the paper's tables and figures on the synthetic
// benchmark. Each experiment prints a plain-text table mirroring the
// paper's layout; EXPERIMENTS.md records paper-vs-measured values.
//
// Usage:
//
//	ebsn-bench -exp fig3 -city small
//	ebsn-bench -exp all -city small -steps 1200000 -threads 8
//	ebsn-bench -exp tab6 -city small -queries 100
//
// -cpuprofile/-memprofile write pprof profiles of the run. Serving and
// query-path performance is measured by `go run ./benchmark` and by the
// packages' `go test -bench` benchmarks, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ebsn"
	"ebsn/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: tab1 fig3 fig3x fig4 fig5 fig6 fig7 tab2 tab3 tab4 tab5 tab6 abl group constrained feed or all (fig3x/abl/group/constrained/feed are extras outside all)")
		city    = flag.String("city", "small", "dataset scale: tiny small beijing shanghai")
		seed    = flag.Uint64("seed", 11, "generator and training seed")
		steps   = flag.Int64("steps", 0, "GEM-A training budget N (0 = scale default)")
		k       = flag.Int("k", 60, "embedding dimension")
		threads = flag.Int("threads", 8, "Hogwild training threads")
		cases   = flag.Int("cases", 2000, "max evaluation cases per protocol run")
		queries = flag.Int("queries", 50, "query users for the online-efficiency experiments")
		outDir  = flag.String("out", "", "also write each table as TSV into this directory")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	err = runExperiments(*exp, *city, *seed, *steps, *k, *threads, *cases, *queries, *outDir)
	stopProfiles()
	if err != nil {
		fatal(err)
	}
}

// startProfiles turns on the requested pprof collection and returns the
// function that flushes it — called before exit even on failed runs.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Println("wrote CPU profile to", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ebsn-bench:", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ebsn-bench:", err)
			}
			f.Close()
			fmt.Println("wrote heap profile to", memPath)
		}
	}, nil
}

func runExperiments(exp, city string, seed uint64, steps int64, k, threads, cases, queries int, outDir string) error {
	cityID, err := ebsn.ParseCity(city)
	if err != nil {
		return err
	}
	gen := ebsn.GeneratorConfigFor(cityID, seed)

	fmt.Printf("building environment for %s (seed %d)...\n", gen.Name, seed)
	start := time.Now()
	env, err := experiments.NewEnv(gen)
	if err != nil {
		return err
	}
	stats := env.Dataset.Stats()
	fmt.Printf("dataset: %s (%.1fs)\n\n", stats, time.Since(start).Seconds())

	opts := experiments.DefaultOptions()
	opts.K = k
	opts.Threads = threads
	opts.EvalCases = cases
	opts.Seed = seed
	if steps > 0 {
		opts.BaseSteps = steps
	} else if cityID == ebsn.CityBeijing || cityID == ebsn.CityShanghai {
		// City-scale graphs carry ~20× the edges of the small preset.
		opts.BaseSteps = 24_000_000
	}

	type runner struct {
		id  string
		run func() (*experiments.Table, error)
	}
	runners := []runner{
		{"tab1", func() (*experiments.Table, error) { return experiments.Tab1(env), nil }},
		{"fig3", func() (*experiments.Table, error) { return experiments.Fig3(env, opts) }},
		{"fig3x", func() (*experiments.Table, error) { return experiments.Fig3Extended(env, opts) }},
		{"fig4", func() (*experiments.Table, error) { return experiments.Fig4(env, opts) }},
		{"fig5", func() (*experiments.Table, error) { return experiments.Fig5(env, opts) }},
		{"tab2", func() (*experiments.Table, error) { return experiments.Tab2(env, opts) }},
		{"tab3", func() (*experiments.Table, error) { return experiments.Tab3(env, opts) }},
		{"tab4", func() (*experiments.Table, error) { return experiments.Tab4(env, opts, nil) }},
		{"tab5", func() (*experiments.Table, error) { return experiments.Tab5(env, opts, nil) }},
		{"fig6", func() (*experiments.Table, error) { return experiments.Fig6(env, opts, nil) }},
		{"tab6", func() (*experiments.Table, error) { return experiments.Tab6(env, opts, queries) }},
		{"fig7", func() (*experiments.Table, error) { return experiments.Fig7(env, opts, queries) }},
		{"abl", func() (*experiments.Table, error) { return experiments.Ablations(env, opts) }},
		{"group", func() (*experiments.Table, error) { return experiments.ScenarioGroup(env, opts) }},
		{"constrained", func() (*experiments.Table, error) { return experiments.ScenarioConstrained(env, opts) }},
		{"feed", func() (*experiments.Table, error) { return experiments.ScenarioFeed(env, opts) }},
	}
	// Extras are valid ids but excluded from "all": fig3x/abl extend the
	// paper's sweep, and the scenario tables measure derived workloads.
	extras := map[string]bool{"fig3x": true, "abl": true, "group": true, "constrained": true, "feed": true}

	want := strings.Split(exp, ",")
	matched := false
	for _, r := range runners {
		extra := extras[r.id]
		if !selected(want, r.id) || (extra && !explicitly(want, r.id)) {
			continue
		}
		matched = true
		t0 := time.Now()
		tbl, err := r.run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		fmt.Println(tbl)
		if outDir != "" {
			path, err := tbl.WriteTSV(outDir, r.id+"-"+gen.Name)
			if err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", r.id, time.Since(t0).Seconds())
	}
	if !matched {
		return fmt.Errorf("no experiment matches %q; see -h", exp)
	}
	return nil
}

func explicitly(want []string, id string) bool {
	for _, w := range want {
		if w == id {
			return true
		}
	}
	return false
}

func selected(want []string, id string) bool {
	for _, w := range want {
		if w == "all" || w == id {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ebsn-bench:", err)
	os.Exit(1)
}
