// Command benchmark is the repository's one repeatable benchmark: four
// round-based workloads against serve.Server on a loopback listener,
// five end-to-end metrics that every workload reports, and an outside-in
// layer trace. See README.md beside this file.
//
//	go run ./benchmark -workload joint-miss -seed 1 -seconds 15
//	go run ./benchmark -workload joint-miss -seed 1 -seconds 15 -trace 1
//	go run ./benchmark -compare before.jsonl after.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the human-readable report goes
// to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultOutDir holds whatever a run writes: live-churn's snapshot and
// artifact while it runs, and trace.json. The root .gitignore names it.
const defaultOutDir = ".bench_out"

// roundsFor turns -seconds into a round count: rounds hold fixed work
// sized to about a second each on the reference box, so N seconds buy
// 0.8 N of them. A run is sized by that count, never by a deadline —
// the same -seconds always issues the same requests.
func roundsFor(seconds int) int {
	if r := seconds * 4 / 5; r > 2 {
		return r
	}
	return 2
}

func main() {
	workload := flag.String("workload", wlJointMiss, "one of joint-miss, mixed-hot, variants, live-churn")
	seed := flag.Uint64("seed", 1, "request-schedule seed: the same seed issues the same requests")
	seconds := flag.Int("seconds", 15, "how long to measure; sets the number of fixed-work rounds")
	trace := flag.Int("trace", 0, "1 runs the layer trace and reports the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "", "append this run as one JSON line to the file, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two files written with -out, got %d arguments", flag.NArg()))
		}
		bad, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if bad {
			os.Exit(1)
		}
		return
	}

	cfg := runConfig{
		workload: *workload, seed: *seed, rounds: roundsFor(*seconds), trace: *trace != 0,
		sc: bench12k(), outDir: defaultOutDir, report: os.Stderr,
	}
	run := runEndToEnd
	if cfg.trace {
		run = runTrace
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
