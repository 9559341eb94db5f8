package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ebsn"
	"ebsn/internal/datagen"
	"ebsn/internal/ta"
	"ebsn/serve"
)

// citySeed fixes the dataset and the model. They are the database of
// the system under test, not the load: -seed changes only which
// requests are sent, so runs with different seeds measure the same
// server and their latencies are comparable.
const citySeed = 1

// scale is one city with the training budget and round sizes that go
// with it.
type scale struct {
	name  string
	gen   datagen.Config
	steps int64
	sizes sizes
	// probes is how many sampled queries the layer trace runs at every
	// depth.
	probes int
}

// bench12k keeps the Table I Beijing ratios (0.2 events and about 17
// attendances per user) at a fifth of the scale: about 11.9k users and
// 600 test events survive the paper's five-event filter.
func bench12k() scale {
	c := datagen.SmallConfig(citySeed)
	c.Name = "bench-12k"
	c.NumUsers, c.NumEvents, c.NumVenues = 12000, 3000, 750
	c.TargetAttendance = 200000
	return scale{name: c.Name, gen: c, steps: 1_000_000, sizes: benchSizes, probes: 500}
}

// tinyScale is the smoke-test city: the tiny preset with four times the
// users, so that the never-repeating request streams of a two-round run
// fit inside it.
func tinyScale() scale {
	c := datagen.TinyConfig(citySeed)
	c.Name = "tiny-1k"
	c.NumUsers, c.NumEvents, c.NumVenues = 1200, 320, 80
	c.TargetAttendance = 18000
	return scale{name: c.Name, gen: c, steps: 60_000, sizes: tinySizes, probes: 64}
}

// daemonConfig is the cmd/ebsn-serve flag defaults: cache 4096 entries
// with a 60 s TTL, a 200 µs coalescing window folding up to 16 requests,
// one shard, exact scoring.
func daemonConfig() serve.Config {
	return serve.Config{
		CacheCapacity:  4096,
		CacheTTL:       time.Minute,
		CoalesceWindow: 200 * time.Microsecond,
		CoalesceBatch:  16,
		Shards:         1,
	}
}

// setupTimes splits one set-up, in seconds.
type setupTimes struct {
	assemble, train, warm, extra, total float64
}

// env is the system under test as one workload needs it, plus what the
// oracle keeps beside it.
type env struct {
	workload string
	rec      *ebsn.Recommender // behind srv
	srv      *serve.Server
	ts       *httptest.Server
	qrec     *ebsn.Recommender // variants: behind the Quantized server
	qsrv     *serve.Server
	qts      *httptest.Server
	dir      string // live-churn: holds the snapshot and the artifact
	times    setupTimes
}

// close stops the listeners and removes live-churn's scratch directory.
func (e *env) close() {
	if e.ts != nil {
		e.ts.Close()
	}
	if e.qts != nil {
		e.qts.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// clone returns a recommender serving the same embeddings as rec with no
// index prepared: a second server or a shadow needs its own, because
// Warm, EnableQuantizedQueries and ingestion all mutate the recommender
// they are given.
func clone(rec *ebsn.Recommender) (*ebsn.Recommender, error) {
	return rec.WithSnapshot(rec.Model().Snapshot())
}

// setUp builds everything the workload needs before its first request
// and times it: Assemble, training on one thread (which makes the
// embeddings, and so every TA access count, deterministic), and Warm
// under the daemon defaults. variants also warms its Quantized server;
// live-churn first saves the snapshot, and its Warm then rebuilds and
// writes the index artifact, as a daemon started with -snapshot and
// -artifact on an empty directory does.
func setUp(d *ebsn.Dataset, sc scale, workload, outDir string) (_ *env, err error) {
	e := &env{workload: workload}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	t0 := time.Now()
	rec, err := ebsn.Assemble(d, ebsn.Config{Seed: citySeed, Threads: 1})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rec.Model().TrainSteps(sc.steps)
	t2 := time.Now()
	cfg := daemonConfig()
	if workload == wlLiveChurn {
		if e.dir, err = os.MkdirTemp(outDir, "live-"); err != nil {
			return nil, err
		}
		cfg.SnapshotPath = filepath.Join(e.dir, "model.gob")
		cfg.ArtifactPath = filepath.Join(e.dir, "index.art")
		if err := rec.SaveModel(cfg.SnapshotPath); err != nil {
			return nil, err
		}
	}
	t3 := time.Now()
	e.rec, e.srv = rec, serve.New(rec, cfg)
	if err := e.srv.Warm(); err != nil {
		return nil, err
	}
	t4 := time.Now()
	if workload == wlVariants {
		if e.qrec, err = clone(rec); err != nil {
			return nil, err
		}
		qcfg := daemonConfig()
		qcfg.Quantized = true
		e.qsrv = serve.New(e.qrec, qcfg)
		if err := e.qsrv.Warm(); err != nil {
			return nil, err
		}
	}
	t5 := time.Now()
	e.times = setupTimes{
		assemble: t1.Sub(t0).Seconds(),
		train:    t2.Sub(t1).Seconds(),
		warm:     t4.Sub(t3).Seconds(),
		extra:    t3.Sub(t2).Seconds() + t5.Sub(t4).Seconds(),
		total:    t5.Sub(t0).Seconds(),
	}
	return e, nil
}

// listen puts the servers on loopback listeners.
func (e *env) listen() {
	e.ts = httptest.NewServer(e.srv)
	if e.qsrv != nil {
		e.qts = httptest.NewServer(e.qsrv)
	}
}

func (e *env) quantURL() string {
	if e.qts == nil {
		return ""
	}
	return e.qts.URL
}

// pruneK is the per-partner pruning Warm resolves from PruneK 0: the
// paper's 5% of the test events.
func pruneK(rec *ebsn.Recommender) int {
	k := len(rec.Split().TestEvents) / 20
	if k < 1 {
		k = 1
	}
	return k
}

// jointVectors copies the row headers of the test-event and user
// embeddings — the space joint queries search. Fresh headers matter:
// ta.BuildCandidates re-aliases the rows it is given into its own packed
// storage.
func jointVectors(rec *ebsn.Recommender) (events, partners [][]float32) {
	te := rec.Split().TestEvents
	events = make([][]float32, len(te))
	for i, x := range te {
		events[i] = rec.Model().EventVec(x)
	}
	partners = make([][]float32, rec.Dataset().NumUsers)
	for u := range partners {
		partners[u] = rec.Model().UserVec(int32(u))
	}
	return events, partners
}

// candidateSet rebuilds the pruned candidate space outside the server,
// for the brute-force oracle and the ta layer probes.
func candidateSet(rec *ebsn.Recommender) (*ta.CandidateSet, error) {
	events, partners := jointVectors(rec)
	return ta.BuildCandidates(events, partners, ta.BuildConfig{TopKEvents: pruneK(rec), Workers: 1})
}

// windows cuts the test events into numWindows equal-count windows by
// start time, each about a quarter of them.
func windows(rec *ebsn.Recommender) ([]window, error) {
	te := rec.Split().TestEvents
	starts := make([]time.Time, len(te))
	for i, x := range te {
		starts[i] = rec.Dataset().Events[x].Start
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
	ws := make([]window, numWindows)
	for w := range ws {
		// Whole seconds: the wire form is RFC 3339 without fractions.
		ws[w].from = starts[w*len(starts)/numWindows].Truncate(time.Second)
		if w+1 < numWindows {
			ws[w].until = starts[(w+1)*len(starts)/numWindows].Truncate(time.Second)
		} else {
			ws[w].until = starts[len(starts)-1].Truncate(time.Second).Add(time.Second)
		}
		if !ws[w].from.Before(ws[w].until) {
			return nil, fmt.Errorf("window %d is empty: test events share a start time", w)
		}
	}
	return ws, nil
}
