// ebsn-serve is the production recommendation daemon: it loads (or
// trains) a model, wraps it in the serve package's HTTP stack — result
// cache, load shedding, per-request timeouts, panic recovery, Prometheus
// metrics — and serves the joint event-partner API until SIGINT/SIGTERM,
// then drains connections and exits cleanly.
//
// A retrained model is picked up without restarting: SIGHUP (or POST
// /v1/reload) loads the snapshot file, rebuilds the TA index off the
// request path, and atomically swaps the serving model — in-flight
// queries finish on the old model, no request fails.
//
// Observability: /metrics serves Prometheus text exposition; -trace
// enables request-scoped spans with a slow-query ring at
// /v1/debug/slowlog; -debug-addr mounts net/http/pprof on a separate
// listener. See OPERATIONS.md for the full metric reference and
// diagnosis walkthroughs.
//
// Usage:
//
//	ebsn-serve -city tiny -addr :8080
//	ebsn-serve -model runs/beijing -threads 8 -cache 65536 -maxinflight 512
//	ebsn-serve -city tiny -trace -slow-query 50ms -debug-addr localhost:6060
//	ebsn-serve -city small -shards 4   # scatter-gather engine, one TA shard per core
//	curl 'http://localhost:8080/v1/events?user=3&n=5'
//	curl 'http://localhost:8080/metrics'
//	kill -HUP $(pidof ebsn-serve)   # swap in runs/beijing/model.gob after a retrain
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ebsn"
	"ebsn/internal/obs"
	"ebsn/serve"
)

func main() {
	var (
		city      = flag.String("city", "tiny", "synthetic dataset scale: tiny small beijing shanghai (ignored with -model)")
		variant   = flag.String("variant", "gem-a", "model family: gem-a gem-p pte")
		seed      = flag.Uint64("seed", 1, "generator and training seed")
		steps     = flag.Int64("steps", 0, "training budget N (0 = scale default)")
		threads   = flag.Int("threads", 4, "training and index-build threads")
		model     = flag.String("model", "", "load a trained model directory (ebsn-train output) instead of training")
		addr      = flag.String("addr", ":8080", "listen address")
		quiet     = flag.Bool("quiet", false, "disable the per-request access log")
		debugAddr = flag.String("debug-addr", "", "net/http/pprof listener address (e.g. localhost:6060; empty disables)")
	)
	scfg := serve.DefaultConfig()
	configFlags(flag.CommandLine, &scfg)
	flag.Parse()

	logger := log.New(os.Stderr, "ebsn-serve: ", log.LstdFlags)

	variantID, err := ebsn.ParseVariant(*variant)
	if err != nil {
		fatal(err)
	}
	cfg := ebsn.Config{Seed: *seed, Variant: variantID, Threads: *threads, TrainSteps: *steps}

	var rec *ebsn.Recommender
	t0 := time.Now()
	if *model != "" {
		logger.Printf("loading model from %s...", *model)
		rec, err = ebsn.Open(*model, cfg)
	} else {
		cfg.City, err = ebsn.ParseCity(*city)
		if err != nil {
			fatal(err)
		}
		logger.Printf("training %s on %s city (seed %d)...", variantID, cfg.City, *seed)
		rec, err = ebsn.New(cfg)
	}
	if err != nil {
		fatal(err)
	}
	logger.Printf("model ready in %.1fs: %s", time.Since(t0).Seconds(), rec.Dataset().Stats())

	if scfg.SnapshotPath == "" && *model != "" {
		scfg.SnapshotPath = filepath.Join(*model, "model.gob")
	}
	if scfg.ArtifactPath == "" && *model != "" {
		scfg.ArtifactPath = filepath.Join(*model, "index.art")
	}
	scfg.Logger, scfg.AccessLog = logger, !*quiet
	s := serve.New(rec, scfg)

	if *debugAddr != "" {
		obs.ServeDebug(*debugAddr, func(err error) { logger.Printf("pprof listener: %v", err) })
		logger.Printf("pprof at http://%s/debug/pprof/", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP hot-swaps the snapshot without dropping connections —
	// the conventional "reload your config" signal, here reloading the
	// model itself.
	sighup := make(chan os.Signal, 1)
	signal.Notify(sighup, syscall.SIGHUP)
	go func() {
		for range sighup {
			if err := s.Reload(""); err != nil {
				logger.Printf("SIGHUP reload failed: %v", err)
			} else {
				logger.Printf("SIGHUP reload succeeded")
			}
		}
	}()

	// Serve immediately so /healthz answers while the TA index builds;
	// /readyz flips to 200 once Warm finishes.
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(ctx, *addr) }()

	t0 = time.Now()
	logger.Printf("listening on %s, building TA index (%d shard(s))...", *addr, scfg.Shards)
	if err := s.Warm(); err != nil {
		fatal(err)
	}
	host := *addr
	if strings.HasPrefix(host, ":") {
		host = "localhost" + host
	}
	logger.Printf("ready in %.1fs — try curl 'http://%s/v1/events?user=3&n=5'", time.Since(t0).Seconds(), host)

	if err := <-errc; err != nil {
		fatal(err)
	}
	logger.Println("shutdown complete")
}

// configFlags binds the flags that set serve.Config fields on fs, each
// defaulting to the field's value in *c — serve.DefaultConfig() in the
// daemon, so the flag defaults and the library defaults are one table.
func configFlags(fs *flag.FlagSet, c *serve.Config) {
	fs.IntVar(&c.CacheCapacity, "cache", c.CacheCapacity, "result cache capacity in entries (0 = default, negative disables)")
	fs.DurationVar(&c.CacheTTL, "cachettl", c.CacheTTL, "result cache TTL")
	fs.DurationVar(&c.FeedTTL, "feed-ttl", c.FeedTTL, "max staleness of a cached /v1/feed answer (negative = bounded only by -cachettl)")
	fs.IntVar(&c.MaxInFlight, "maxinflight", c.MaxInFlight, "concurrent requests before load shedding with 503")
	fs.DurationVar(&c.RequestTimeout, "timeout", c.RequestTimeout, "per-request handler timeout")
	fs.DurationVar(&c.DrainTimeout, "drain", c.DrainTimeout, "connection-drain budget on shutdown")
	fs.IntVar(&c.PruneK, "prunek", c.PruneK, "TA candidate pruning per partner (0 = 5% heuristic, negative = full space)")
	fs.IntVar(&c.Shards, "shards", c.Shards, "partner-range shards of the scatter-gather query engine (results identical for any value)")
	fs.IntVar(&c.MaxBatch, "max-batch", c.MaxBatch, "max users per batched POST query; larger requests get 400")
	fs.DurationVar(&c.CoalesceWindow, "coalesce-window", c.CoalesceWindow, "micro-batching window for single-user partner queries (0 disables coalescing)")
	fs.IntVar(&c.CoalesceBatch, "coalesce-batch", c.CoalesceBatch, "max single-user queries folded into one coalesced dispatch")
	fs.IntVar(&c.AutoCompactEvents, "auto-compact", c.AutoCompactEvents, "background-compact the live delta once this many events are pending (0 = only on POST /v1/compact)")
	fs.StringVar(&c.SnapshotPath, "snapshot", c.SnapshotPath, "model snapshot file for SIGHUP / POST /v1/reload (default <model>/model.gob)")
	fs.StringVar(&c.ArtifactPath, "artifact", c.ArtifactPath, "zero-copy index artifact: map it on start/reload instead of rebuilding, rewrite it after fallback rebuilds (default <model>/index.art)")
	fs.BoolVar(&c.TraceEnabled, "trace", c.TraceEnabled, "enable request-scoped tracing (slow-query ring at /v1/debug/slowlog)")
	fs.DurationVar(&c.SlowQueryThreshold, "slow-query", c.SlowQueryThreshold, "traced-request duration that lands in the slowlog")
	fs.IntVar(&c.SlowLogSize, "slowlog-size", c.SlowLogSize, "slow-query ring capacity")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ebsn-serve:", err)
	os.Exit(1)
}
