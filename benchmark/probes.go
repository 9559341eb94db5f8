package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ebsn"
	"ebsn/internal/ebsnet"
	"ebsn/internal/engine"
	"ebsn/internal/rng"
	"ebsn/internal/ta"
	"ebsn/internal/vecmath"
	"ebsn/serve"
)

// probes measures every layer from outside, by calling that layer's
// public functions on structures the harness builds itself from the
// trained vectors — the same builds, under the same configuration, that
// Warm performs inside the server. Probe servers are separate from the
// workload's server, so a probe query is a cache miss whatever traffic
// went before.
type probes struct {
	s     *session
	log   *spanLog
	rec   *ebsn.Recommender
	users []int32 // the sampled queries, then a second sample of the same size
	n     int     // len(users) / 2
	pk    int

	events, partners       [][]float32
	eventData, partnerData []float32 // packed rows, for the kernel depth
	set                    *ta.CandidateSet
	idx, qidx              *ta.FastIndex
	eng1, eng2             *engine.Engine
	preds                  []ebsn.EventPredicate
	windows                []window

	viaHTTP *serve.Server // depth http.roundtrip, and the variant requests
	viaTS   *httptest.Server
	direct  *serve.Server // depth serve.ServeHTTP: same config, own cache
	nocoal  *serve.Server // CoalesceWindow 0, to price the coalescer
	quantTS *httptest.Server
	dir     string

	attempted, failed int
	firstErr          error
}

func (p *probes) close() {
	p.viaTS.Close()
	if p.quantTS != nil {
		p.quantTS.Close()
	}
	os.RemoveAll(p.dir)
}

func (p *probes) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// warmed returns a server over its own clone of rec, warmed under cfg.
func warmed(rec *ebsn.Recommender, cfg serve.Config) (*serve.Server, error) {
	c, err := clone(rec)
	if err != nil {
		return nil, err
	}
	srv := serve.New(c, cfg)
	return srv, srv.Warm()
}

func pack(rows [][]float32) []float32 {
	out := make([]float32, 0, len(rows)*len(rows[0]))
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

func newProbes(s *session, log *spanLog) (*probes, error) {
	rec := s.e.rec
	p := &probes{s: s, log: log, rec: rec, n: s.cfg.sc.probes, pk: pruneK(rec)}
	if 2*p.n > rec.Dataset().NumUsers {
		return nil, fmt.Errorf("city has %d users, too few for %d probe queries", rec.Dataset().NumUsers, p.n)
	}
	cyc := newCycle(rec.Dataset().NumUsers, rng.New(s.cfg.seed^0x70726f6265))
	for i := 0; i < 2*p.n; i++ {
		p.users = append(p.users, cyc.draw())
	}
	var err error
	if p.windows, err = windows(rec); err != nil {
		return nil, err
	}
	for _, w := range p.windows {
		pred, _ := rec.CompileConstraint(w.constraint())
		p.preds = append(p.preds, pred)
	}
	p.events, p.partners = jointVectors(rec)
	p.eventData, p.partnerData = pack(p.events), pack(p.partners)
	if p.dir, err = os.MkdirTemp(s.cfg.outDir, "probe-"); err != nil {
		return nil, err
	}
	if p.viaHTTP, err = warmed(rec, daemonConfig()); err != nil {
		return nil, err
	}
	p.viaTS = httptest.NewServer(p.viaHTTP)
	if p.direct, err = warmed(rec, daemonConfig()); err != nil {
		return nil, err
	}
	nc := daemonConfig()
	nc.CoalesceWindow = 0
	if p.nocoal, err = warmed(rec, nc); err != nil {
		return nil, err
	}
	return p, nil
}

// call serves one request by calling the handler directly, with no
// socket in between, and returns the recorded response.
func call(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// timed runs f and returns how long it took in microseconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return us(time.Since(t0))
}

// perCall is the allocation count of one f, averaged over n calls.
func perCall(n int, f func(i int)) float64 {
	m0 := mallocs()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(mallocs()-m0) / float64(n)
}

func (p *probes) run(layer map[string]float64) error {
	p.kernels(layer)
	if err := p.builds(layer); err != nil {
		return err
	}
	p.depths(layer)
	if err := p.variants(layer); err != nil {
		return err
	}
	p.allocs(layer)
	return p.live(layer)
}

// kernels times the vecmath dot kernels over a row buffer larger than
// L2, so the figure is the streaming rate queries see on the partner
// pass, not a cache-resident best case. Bytes are computed from the
// buffer size.
func (p *probes) kernels(layer map[string]float64) {
	const k = 60
	rows := 1 << 16 // 15 MB of float32 rows
	if p.s.cfg.sc.probes < 100 {
		rows = 1 << 12
	}
	src := rng.New(7)
	data := make([]float32, rows*k)
	for i := range data {
		data[i] = src.Float32() - 0.5
	}
	qs := make([]float32, 16*k)
	for i := range qs {
		qs[i] = src.Float32() - 0.5
	}
	out := make([]float32, 16*rows)
	best := func(f func()) float64 { // ns per call: the fastest of five passes
		b := 0.0
		for i := 0; i < 5; i++ {
			if d := timed(f) * 1000; i == 0 || d < b {
				b = d
			}
		}
		return b
	}
	dot := best(func() { vecmath.DotBatch(qs[:k], data, k, out[:rows]) })
	layer["vecmath.dot_ns_per_row"] = dot / float64(rows)
	layer["vecmath.dot_gbps"] = float64(rows*k*4) / dot
	panel := best(func() { vecmath.DotPanel(qs, 16, data, k, out) })
	layer["vecmath.dotpanel_b16_ns_per_row"] = panel / float64(16*rows)
	data8 := make([]int8, rows*k)
	for r := 0; r < rows; r++ {
		vecmath.QuantizeRow(data[r*k:(r+1)*k], data8[r*k:(r+1)*k])
	}
	q8 := make([]int8, k)
	vecmath.QuantizeRow(qs[:k], q8)
	out32 := make([]int32, rows)
	i8 := best(func() { vecmath.DotBatchI8(q8, data8, k, out32) })
	layer["vecmath.doti8_ns_per_row"] = i8 / float64(rows)
}

// builds times the index builds Warm performs, one thread each, and
// keeps the results for the query probes.
func (p *probes) builds(layer map[string]float64) error {
	var err error
	layer["ta.build_candidates_s"] = timed(func() { p.set, err = candidateSet(p.rec) }) / 1e6
	if err != nil {
		return err
	}
	layer["ta.fastindex_build_s"] = timed(func() { p.idx = ta.NewFastIndexWorkers(p.set, 1) }) / 1e6
	qset, err := candidateSet(p.rec)
	if err != nil {
		return err
	}
	p.qidx = ta.NewFastIndexWorkers(qset, 1)
	qset.PackQuantized()
	layer["engine.build_s"] = timed(func() {
		p.eng1, err = engine.Build(p.events, p.partners, engine.Config{Shards: 1, TopKEvents: p.pk, Workers: 1})
	}) / 1e6
	if err != nil {
		return err
	}
	if p.eng2, err = engine.Build(p.events, p.partners, engine.Config{Shards: 2, TopKEvents: p.pk, Workers: 1}); err != nil {
		return err
	}
	layer["ebsnet.graphs_build_s"] = timed(func() {
		_, err = ebsnet.BuildGraphs(p.rec.Dataset(), p.rec.Split(), ebsnet.DefaultGraphsConfig())
	}) / 1e6
	return err
}

// depthNames are the layer boundaries of one joint query, outermost
// first. Each is a span name in trace.json.
var depthNames = []string{"http.roundtrip", "serve.ServeHTTP", "ebsn.TopEventPartnersShardedStats",
	"engine.SearchInto", "ta.FastIndex.TopNExcludingScratch", "vecmath.DotBatch"}

// depths runs each sampled joint query at every depth, recording one
// span per depth under a shared query id, each the child of the depth
// above it:
//
//	http.roundtrip ⊃ serve.ServeHTTP ⊃ ebsn.TopEventPartnersShardedStats
//	  ⊃ engine.SearchInto ⊃ ta.FastIndex.TopNExcludingScratch ⊃ vecmath.DotBatch
//
// Self time is a depth's median minus its child's. The loop is
// depth-major — all queries at one depth, then the next depth — because
// every depth owns a private copy of the index: interleaving them would
// have each query find its copy evicted by the other five, which no
// server handling a stream of queries against one index ever sees.
func (p *probes) depths(layer map[string]float64) {
	users := p.users[:p.n]
	model := p.rec.Model()
	k := model.K()
	sc := ta.GetScratch()
	defer ta.PutScratch(sc)
	a := make([]float32, len(p.events))
	b := make([]float32, len(p.partners))
	var dst []ta.Result
	var shardStats []engine.ShardStats
	var buf bytes.Buffer
	var prepass, walk, merge, random, sortedAcc, frac, bytesOut []float64
	exact := make([][topN]ta.Result, p.n)

	// at times f once per sampled query and records the spans of this
	// depth under the spans of the depth above.
	parents := make([]int, p.n)
	for q := range parents {
		parents[q] = -1
	}
	at := func(depth int, f func(q int, u int32)) float64 {
		lat := make([]float64, p.n)
		for q, u := range users {
			t0 := time.Now()
			f(q, u)
			t1 := time.Now()
			lat[q] = us(t1.Sub(t0))
			parents[q] = p.log.add(depthNames[depth], t0, t1, parents[q], q)
		}
		return median(lat)
	}
	p.attempted += 4 * p.n
	m := make([]float64, len(depthNames))
	m[0] = at(0, func(_ int, u int32) {
		if _, err := p.s.gen.do(p.viaTS.URL, &request{path: userQuery("/v1/partners", u)}, &buf); err != nil {
			p.fail(err)
		}
	})
	m[1] = at(1, func(_ int, u int32) {
		w := call(p.direct, "GET", userQuery("/v1/partners", u), nil)
		if w.Code != http.StatusOK {
			p.fail(fmt.Errorf("direct GET /v1/partners for user %d: status %d", u, w.Code))
		}
		bytesOut = append(bytesOut, float64(w.Body.Len()))
	})
	m[2] = at(2, func(_ int, u int32) {
		if _, _, err := p.rec.TopEventPartnersShardedStats(u, topN); err != nil {
			p.fail(err)
		}
	})
	m[3] = at(3, func(_ int, u int32) {
		var st engine.Stats
		var err error
		if dst, st, err = p.eng1.SearchInto(model.UserVec(u), topN, u, dst, shardStats); err != nil {
			p.fail(err)
			return
		}
		shardStats = st.Shards
		prepass = append(prepass, us(st.Prepass))
		walk = append(walk, us(st.Shards[0].Wall))
		merge = append(merge, us(st.Merge))
	})
	// The one-shard engine's own index: the depth below engine.SearchInto
	// walks the very structure SearchInto just walked.
	idx := p.eng1.Index()
	m[4] = at(4, func(q int, u int32) {
		res, st := idx.TopNExcludingScratch(model.UserVec(u), topN, u, sc)
		copy(exact[q][:], res)
		random = append(random, float64(st.RandomAccesses))
		sortedAcc = append(sortedAcc, float64(st.SortedAccesses))
		frac = append(frac, st.AccessFraction())
	})
	m[5] = at(5, func(_ int, u int32) {
		vecmath.DotBatch(model.UserVec(u), p.eventData, k, a)
		vecmath.DotBatch(model.UserVec(u), p.partnerData, k, b)
	})

	// The same queries, the other ways the layers can answer them.
	each := func(f func(q int, u int32)) float64 {
		lat := make([]float64, p.n)
		for q, u := range users {
			lat[q] = timed(func() { f(q, u) })
		}
		return median(lat)
	}
	nocoal := each(func(_ int, u int32) {
		if w := call(p.nocoal, "GET", userQuery("/v1/partners", u), nil); w.Code != http.StatusOK {
			p.fail(fmt.Errorf("uncoalesced GET /v1/partners for user %d: status %d", u, w.Code))
		}
	})
	layer["serve.hit_us"] = each(func(_ int, u int32) { // asked of this server a moment ago
		if w := call(p.direct, "GET", userQuery("/v1/partners", u), nil); w.Code != http.StatusOK {
			p.fail(fmt.Errorf("repeated GET /v1/partners for user %d: status %d", u, w.Code))
		}
	})
	layer["ta.topn_pred_us"] = each(func(q int, u int32) {
		p.idx.TopNExcludingPredScratch(model.UserVec(u), topN, u, p.preds[q%len(p.preds)], sc)
	})
	var recall []float64
	layer["ta.topn_quantized_us"] = each(func(q int, u int32) {
		res, _ := p.qidx.TopNExcludingQuantizedScratch(model.UserVec(u), topN, u, sc)
		found := 0
		for _, r := range res {
			for _, e := range exact[q] {
				if r.Event == e.Event && r.Partner == e.Partner {
					found++
					break
				}
			}
		}
		recall = append(recall, float64(found)/topN)
	})
	layer["engine.search_shards2_us"] = each(func(_ int, u int32) {
		var err error
		if dst, _, err = p.eng2.SearchInto(model.UserVec(u), topN, u, dst, nil); err != nil {
			p.fail(err)
		}
	})
	layer["ebsn.top_events_us"] = each(func(_ int, u int32) {
		if _, err := p.rec.TopEvents(u, topN); err != nil {
			p.fail(err)
		}
	})
	layer["ebsn.constrained_us"] = each(func(q int, u int32) {
		if _, _, err := p.rec.TopEventPartnersConstrainedStats(u, topN, p.windows[q%len(p.windows)].constraint()); err != nil {
			p.fail(err)
		}
	})

	layer["http.roundtrip_us"] = m[0]
	layer["http.transport_self_us"] = m[0] - m[1]
	layer["serve.miss_us"] = m[1]
	layer["serve.self_miss_us"] = m[1] - m[2]
	layer["serve.coalesce_wait_us"] = m[1] - nocoal
	layer["serve.bytes_per_resp"] = median(bytesOut)
	layer["ebsn.joint_us"] = m[2]
	layer["ebsn.self_us"] = m[2] - m[3]
	layer["engine.search_us"] = m[3]
	layer["engine.self_us"] = m[3] - m[4]
	layer["engine.prepass_us"] = median(prepass)
	layer["engine.shard_walk_us"] = median(walk)
	layer["engine.merge_us"] = median(merge)
	layer["ta.topn_us"] = m[4]
	layer["ta.kernel_us"] = m[5]
	layer["ta.random_accesses_per_query"] = mean(random)
	layer["ta.sorted_accesses_per_query"] = mean(sortedAcc)
	layer["ta.access_fraction"] = mean(frac)
	layer["ta.quantized_recall_at_10"] = mean(recall)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// variants times the batched paths at each layer and the variant
// requests over HTTP, on the second user sample (so nothing is cached),
// one kind at a time for the reason depths gives.
func (p *probes) variants(layer map[string]float64) error {
	model := p.rec.Model()
	fresh := p.users[p.n:]
	var buf bytes.Buffer
	get := func(base, path string) {
		p.attempted++
		if _, err := p.s.gen.do(base, &request{path: path}, &buf); err != nil {
			p.fail(err)
		}
	}
	// each times f once per stride-th user of the sample and returns the
	// median in microseconds.
	each := func(stride int, f func(i int, u int32)) float64 {
		var lat []float64
		for i := 0; i < len(fresh); i += stride {
			lat = append(lat, timed(func() { f(i, fresh[i]) }))
		}
		return median(lat)
	}
	// eachBatch does the same per full batch of 16 users.
	eachBatch := func(f func(ids []int32, vecs [][]float32)) float64 {
		var lat []float64
		for lo := 0; lo+batchUsers <= len(fresh); lo += batchUsers {
			ids := fresh[lo : lo+batchUsers]
			vecs := make([][]float32, len(ids))
			for j, u := range ids {
				vecs[j] = model.UserVec(u)
			}
			lat = append(lat, timed(func() { f(ids, vecs) }))
		}
		return median(lat)
	}
	bsc := ta.GetBatchScratch()
	defer ta.PutBatchScratch(bsc)
	layer["ta.topn_batch16_us_per_user"] = eachBatch(func(ids []int32, vecs [][]float32) {
		p.idx.TopNBatch(ta.BatchQuery{Users: vecs, N: topN, Exclude: ids}, bsc)
	}) / batchUsers
	layer["engine.batch16_us_per_user"] = eachBatch(func(ids []int32, vecs [][]float32) {
		if _, _, err := p.eng1.SearchBatch(vecs, topN, ids); err != nil {
			p.fail(err)
		}
	}) / batchUsers
	layer["serve.batch16_p50_ms"] = eachBatch(func(ids []int32, _ [][]float32) {
		body, _ := json.Marshal(serve.BatchQueryRequest{Users: ids, N: topN})
		p.attempted++
		if _, err := p.s.gen.do(p.viaTS.URL, &request{path: "/v1/partners", body: body}, &buf); err != nil {
			p.fail(err)
		}
	}) / 1000

	layer["ebsn.feed_us"] = each(3, func(_ int, u int32) {
		if _, err := p.rec.Feed(u, topN, feedM); err != nil {
			p.fail(err)
		}
	})
	layer["serve.feed_p50_ms"] = each(3, func(_ int, u int32) {
		get(p.viaTS.URL, userQuery("/v1/feed", u)+"&m="+strconv.Itoa(feedM))
	}) / 1000
	layer["serve.constrained_p50_ms"] = each(1, func(i int, u int32) {
		w := p.windows[i%len(p.windows)]
		get(p.viaTS.URL, userQuery("/v1/partners", u)+"&from="+w.from.Format(time.RFC3339)+"&until="+w.until.Format(time.RFC3339))
	}) / 1000

	quantURL := p.s.e.quantURL()
	if quantURL == "" {
		qc := daemonConfig()
		qc.Quantized = true
		qsrv, err := warmed(p.rec, qc)
		if err != nil {
			return err
		}
		p.quantTS = httptest.NewServer(qsrv)
		quantURL = p.quantTS.URL
	}
	layer["serve.quantized_p50_ms"] = each(1, func(_ int, u int32) { get(quantURL, userQuery("/v1/partners", u)) }) / 1000
	return nil
}

// allocs counts heap allocations per call at three depths. The serve
// figures subtract what the harness itself allocates to build a request
// and a recorder, measured against a handler that does nothing.
func (p *probes) allocs(layer map[string]float64) {
	model := p.rec.Model()
	sc := ta.GetScratch()
	defer ta.PutScratch(sc)
	users := p.users[:p.n]
	layer["ta.allocs_per_query"] = perCall(p.n, func(i int) {
		p.idx.TopNExcludingScratch(model.UserVec(users[i]), topN, users[i], sc)
	})
	var dst []ta.Result
	var ss []engine.ShardStats
	search := func(i int) {
		var st engine.Stats
		dst, st, _ = p.eng1.SearchInto(model.UserVec(users[i]), topN, users[i], dst, ss)
		ss = st.Shards
	}
	search(0) // grow the caller-managed buffers once
	layer["engine.allocs_per_query"] = perCall(p.n, search)

	nop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	paths := make([]string, len(p.users))
	for i, u := range p.users {
		paths[i] = userQuery("/v1/partners", u)
	}
	harness := perCall(p.n, func(i int) { call(nop, "GET", paths[i], nil) })
	// The second sample has not been asked of the direct server: misses.
	// The first has: hits.
	layer["serve.allocs_per_miss"] = perCall(p.n, func(i int) { call(p.direct, "GET", paths[p.n+i], nil) }) - harness
	layer["serve.allocs_per_hit"] = perCall(p.n, func(i int) { call(p.direct, "GET", paths[i], nil) }) - harness

	var scrape []float64
	for i := 0; i < 5; i++ {
		scrape = append(scrape, timed(func() { call(p.s.e.srv, "GET", "/metrics", nil) })/1000)
	}
	layer["serve.metrics_scrape_ms"] = median(scrape)
}

// live measures the write path layer by layer — delta append, facade
// ingest, HTTP ingest — then artifact save and map, compaction at the
// facade and through the server, live queries while an un-waited fold
// runs, and reloads. It uses its own recommenders and a server of its
// own with a snapshot and an artifact, so the workload's server is not
// disturbed.
func (p *probes) live(layer map[string]float64) error {
	d := p.rec.Dataset()
	cyc := newCycle(len(d.Events), rng.New(p.s.cfg.seed^0x6c697665))
	draw := func(n int) []serve.IngestEvent {
		evs := make([]serve.IngestEvent, n)
		for i := range evs {
			e := d.Events[cyc.draw()]
			evs[i] = serve.IngestEvent{Words: e.Words, Venue: e.Venue, Start: e.Start}
		}
		return evs
	}
	facade, err := newShadow(p.rec)
	if err != nil {
		return err
	}
	evs := draw(4 * ingestSize)
	vecs := make([][]float32, len(evs))
	for i, e := range evs {
		if vecs[i], err = facade.FoldInEvent(e.Words, e.Venue, e.Start); err != nil {
			return err
		}
	}
	delta := ta.NewDeltaForSet(p.set, p.pk)
	var addUs, ingestUs []float64
	for _, v := range vecs {
		addUs = append(addUs, timed(func() {
			if e := delta.AddEvent(v); e != nil {
				err = e
			}
		}))
	}
	for _, e := range evs {
		ingestUs = append(ingestUs, timed(func() {
			if _, e := facade.IngestColdEvent(e.Words, e.Venue, e.Start); e != nil {
				err = e
			}
		}))
	}
	if err != nil {
		return err
	}
	layer["ta.delta_add_us_per_event"] = median(addUs)
	layer["ebsn.ingest_us_per_event"] = median(ingestUs)
	var liveUs []float64
	for _, u := range p.users[:p.n] {
		liveUs = append(liveUs, timed(func() {
			if _, e := facade.TopEventPartnersLive(u, topN); e != nil {
				err = e
			}
		}))
	}
	layer["ebsn.live_us"] = median(liveUs)
	layer["ebsn.compact_ms"] = timed(func() { err = facade.CompactLiveEvents() }) / 1000
	if err != nil {
		return err
	}

	art := filepath.Join(p.dir, "index.art")
	layer["ebsn.artifact_save_ms"] = timed(func() { err = facade.SaveIndexArtifact(art) }) / 1000
	if err != nil {
		return err
	}
	mapped, err := clone(p.rec)
	if err != nil {
		return err
	}
	layer["ebsn.artifact_map_ms"] = timed(func() { err = mapped.PrepareJointFromArtifact(art, p.pk, 1) }) / 1000
	if err != nil {
		return err
	}

	cfg := daemonConfig()
	cfg.SnapshotPath = filepath.Join(p.dir, "model.gob")
	cfg.ArtifactPath = art
	if err := p.rec.SaveModel(cfg.SnapshotPath); err != nil {
		return err
	}
	srv := serve.New(mapped, cfg)
	if err := srv.Warm(); err != nil {
		return err
	}
	post := func(path string, body []byte) float64 {
		p.attempted++
		return timed(func() {
			if w := call(srv, "POST", path, body); w.Code != http.StatusOK {
				p.fail(fmt.Errorf("POST %s: status %d: %.200s", path, w.Code, w.Body.Bytes()))
			}
		}) / 1000
	}
	ingest := func() []float64 {
		var out []float64
		for b := 0; b < 4; b++ {
			body, _ := json.Marshal(serve.IngestRequest{Events: draw(ingestSize), Source: "probe"})
			out = append(out, post("/v1/ingest", body))
		}
		return out
	}
	ingestMs := median(ingest())
	layer["serve.ingest_p50_ms"] = ingestMs
	layer["serve.ingest_self_ms"] = ingestMs - ingestSize*layer["ebsn.ingest_us_per_event"]/1000
	layer["serve.compact_ms"] = post("/v1/compact?wait=1", nil)

	// Reads beside a fold nobody waits for: the compaction runs on its
	// own goroutine while live queries keep arriving.
	ingest()
	post("/v1/compact", nil)
	var under []float64
	for _, u := range p.users[:p.n] {
		path := userQuery("/v1/partners/live", u)
		p.attempted++
		under = append(under, timed(func() {
			if w := call(srv, "GET", path, nil); w.Code != http.StatusOK {
				p.fail(fmt.Errorf("GET %s: status %d", path, w.Code))
			}
		})/1000)
	}
	post("/v1/compact?wait=1", nil)
	layer["serve.live_p90_under_compaction_ms"] = p90OrMedian(under)

	var reload []float64
	for i := 0; i < 3; i++ {
		reload = append(reload, post("/v1/reload", nil))
	}
	layer["serve.reload_ms"] = median(reload)
	layer["proc.mapped_mb"] = float64(ebsn.MappedIndexBytes()) / (1 << 20)
	return nil
}
