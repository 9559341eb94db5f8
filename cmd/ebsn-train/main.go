// ebsn-train generates (or imports) an EBSN dataset, trains a GEM model
// on it, and saves the dataset and learned embeddings for ebsn-recommend
// and ebsn-serve.
//
// Training is crash-safe: -checkpoint-every writes periodic atomic
// snapshots (temp file + fsync + rename, so a kill mid-write never
// corrupts the previous checkpoint), SIGINT/SIGTERM stops at a step
// boundary and checkpoints before exiting, and -resume continues an
// interrupted run — including its learning-rate decay schedule — from
// the saved step counter.
//
// Usage:
//
//	ebsn-train -city small -out ./run                    # generate + train
//	ebsn-train -data ./run/dataset -out ./run            # retrain on saved data
//	ebsn-train -city tiny -variant pte -steps 500000 -out ./run
//	ebsn-train -city small -out ./run -checkpoint-every 1000000
//	ebsn-train -city small -out ./run -resume            # continue after a crash/SIGINT
//
// Long runs are observable: -metrics-addr exposes Prometheus text
// (steps, per-graph edge draws, sampler rank-rebuild latency,
// checkpoint durations, throughput and objective gauges) and
// -debug-addr mounts net/http/pprof, both off the training hot path.
// See OPERATIONS.md for the metric reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ebsn"
	"ebsn/internal/obs"
)

func main() {
	var (
		city      = flag.String("city", "small", "dataset scale: tiny small beijing shanghai")
		data      = flag.String("data", "", "existing dataset directory (skips generation)")
		out       = flag.String("out", "ebsn-run", "output directory")
		variant   = flag.String("variant", "gem-a", "model variant: gem-a gem-p pte")
		seed      = flag.Uint64("seed", 1, "generation/training seed")
		steps     = flag.Int64("steps", 0, "training budget N (0 = ~25 samples per edge)")
		k         = flag.Int("k", 60, "embedding dimension")
		threads   = flag.Int("threads", 4, "Hogwild training threads")
		ckptEvery = flag.Int64("checkpoint-every", 0, "write an atomic model checkpoint every N steps (0 = only at the end)")
		resume    = flag.Bool("resume", false, "resume from the checkpoint in -out, continuing its decay schedule")
		objSample = flag.Int("objective-samples", 4096, "edges sampled per progress report for the objective estimate (0 disables)")
		artShards = flag.Int("artifact-shards", 1, "shard count of the zero-copy index artifact written to <out>/index.art after training (0 skips the artifact)")
		metrics   = flag.String("metrics-addr", "", "Prometheus exposition listener (e.g. localhost:9090; empty disables)")
		debugAddr = flag.String("debug-addr", "", "net/http/pprof listener address (e.g. localhost:6060; empty disables)")
	)
	flag.Parse()

	v, err := ebsn.ParseVariant(*variant)
	if err != nil {
		fatal(err)
	}
	cfg := ebsn.Config{
		Seed:       *seed,
		Variant:    v,
		K:          *k,
		TrainSteps: *steps,
		Threads:    *threads,
	}
	modelPath := filepath.Join(*out, "model.gob")
	dataDir := filepath.Join(*out, "dataset")

	// On resume, prefer the dataset saved next to the checkpoint so the
	// graphs match the embeddings exactly.
	if *resume && *data == "" {
		if _, statErr := os.Stat(dataDir); statErr == nil {
			*data = dataDir
		}
	}

	var dataset *ebsn.Dataset
	if *data != "" {
		fmt.Printf("loading dataset from %s...\n", *data)
		dataset, err = ebsn.LoadDatasetCSV(*data)
		if err != nil {
			fatal(err)
		}
	} else {
		cityID, err := ebsn.ParseCity(*city)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("generating %s dataset (seed %d)...\n", cityID, *seed)
		dataset, err = ebsn.GenerateDataset(ebsn.GeneratorConfigFor(cityID, *seed))
		if err != nil {
			fatal(err)
		}
	}
	fmt.Println("dataset:", dataset.Stats())

	rec, err := ebsn.Assemble(dataset, cfg)
	if err != nil {
		fatal(err)
	}
	model := rec.Model()

	if *resume {
		snap, err := ebsn.LoadModelSnapshot(modelPath)
		if err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		if err := model.RestoreSnapshot(snap); err != nil {
			fatal(fmt.Errorf("resume: %w (did -city/-k/-data change since the checkpoint?)", err))
		}
		fmt.Printf("resumed from %s at step %d/%d\n", modelPath, model.Steps(), model.Cfg.TotalSteps)
	}

	// The dataset (filtered) is saved before training so a crashed run's
	// checkpoint is loadable by -resume and ebsn-serve immediately.
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if err := ebsn.SaveDatasetCSV(rec.Dataset(), dataDir); err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancels training at a step boundary; the loop below
	// then checkpoints what was learned and exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tm *trainMetrics
	if *metrics != "" {
		tm = newTrainMetrics(model)
		tm.serve(*metrics, func(err error) { fmt.Fprintln(os.Stderr, "ebsn-train: metrics listener:", err) })
		fmt.Printf("metrics at http://%s/metrics\n", *metrics)
	}
	if *debugAddr != "" {
		obs.ServeDebug(*debugAddr, func(err error) { fmt.Fprintln(os.Stderr, "ebsn-train: pprof listener:", err) })
		fmt.Printf("pprof at http://%s/debug/pprof/\n", *debugAddr)
	}
	saveCheckpoint := func() error {
		t0 := time.Now()
		if err := rec.SaveModel(modelPath); err != nil {
			return err
		}
		tm.observeCheckpoint(time.Since(t0))
		return nil
	}

	total := model.Cfg.TotalSteps
	start := time.Now()
	interrupted := false
	for model.Steps() < total {
		batch := total - model.Steps()
		if *ckptEvery > 0 && batch > *ckptEvery {
			batch = *ckptEvery
		}
		t0 := time.Now()
		taken := model.TrainStepsCtx(ctx, batch)
		if taken > 0 {
			logProgress(rec, tm, taken, time.Since(t0), total, *objSample)
		}
		if *ckptEvery > 0 || ctx.Err() != nil {
			if err := saveCheckpoint(); err != nil {
				fatal(err)
			}
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
	}

	if interrupted {
		fmt.Printf("interrupted at step %d/%d; checkpoint saved to %s\n", model.Steps(), total, modelPath)
		fmt.Printf("resume with: ebsn-train -out %s -resume\n", *out)
		return
	}

	if err := saveCheckpoint(); err != nil {
		fatal(err)
	}
	fmt.Printf("trained %s in %.1fs (%d steps)\n", v, time.Since(start).Seconds(), model.Steps())
	fmt.Printf("saved filtered dataset to %s and model to %s\n", dataDir, modelPath)

	// Build the joint index once here and persist it as a zero-copy
	// artifact, so ebsn-serve -model starts by mapping it instead of
	// rebuilding. pruneK is the daemon's default (DefaultPruneK), so a
	// default serve run's fingerprint matches. Best-effort: a failed artifact only costs the daemon one
	// rebuild on its next start.
	if *artShards > 0 {
		artPath := filepath.Join(*out, "index.art")
		t0 := time.Now()
		pk := rec.DefaultPruneK()
		err := rec.PrepareJointSharded(pk, *artShards)
		if err == nil {
			err = rec.SaveIndexArtifact(artPath)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ebsn-train: index artifact skipped: %v\n", err)
		} else {
			fmt.Printf("built joint index (pruneK=%d, %d shard(s)) and saved zero-copy artifact to %s in %.1fs\n",
				pk, *artShards, artPath, time.Since(t0).Seconds())
		}
	}
	fmt.Println("next: ebsn-recommend -run", *out, "-user 0")
}

// logProgress prints one training progress line — position in the
// budget, throughput for the batch, and a sampled objective estimate —
// and mirrors the window's throughput and objective into the metrics
// panel (tm may be nil).
func logProgress(rec *ebsn.Recommender, tm *trainMetrics, taken int64, elapsed time.Duration, total int64, objSamples int) {
	model := rec.Model()
	rate := float64(taken) / elapsed.Seconds()
	tm.setRate(rate)
	line := fmt.Sprintf("step %d/%d (%.1f%%) | %.0f steps/s", model.Steps(), total,
		100*float64(model.Steps())/float64(total), rate)
	if objSamples > 0 {
		if est, err := rec.TrainingObjective(objSamples); err == nil {
			line += fmt.Sprintf(" | objective ~%.4f (%d samples)", est.Total, est.Samples)
			tm.setObjective(est.Total)
		}
	}
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ebsn-train:", err)
	os.Exit(1)
}
