package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"ebsn"
	"ebsn/internal/rng"
	"ebsn/serve"
)

// kind is a request class: one endpoint used one way. Latencies are kept
// per kind so a workload that mixes several can still report each.
type kind uint8

const (
	kEvents      kind = iota // GET /v1/events
	kPartners                // GET /v1/partners
	kConstrained             // GET /v1/partners?from=&until=
	kBatch                   // POST /v1/partners, 16 users
	kFeed                    // GET /v1/feed
	kQuantized               // GET /v1/partners on the Quantized server
	kLive                    // GET /v1/partners/live
	kIngest                  // POST /v1/ingest, 16 events
	kCompact                 // POST /v1/compact?wait=1
	kReload                  // POST /v1/reload
	numKinds
)

var kindNames = [numKinds]string{"events", "partners", "constrained", "batch16", "feed", "quantized", "live", "ingest", "compact", "reload"}

func (k kind) String() string { return kindNames[k] }

// Query shape shared by every workload: top 10 pairs or events, 5
// companions per feed event, 16 users per batch, 16 events per ingest.
const (
	topN       = 10
	feedM      = 5
	batchUsers = 16
	ingestSize = 16
	numWindows = 4
)

// request is one HTTP call of a schedule, together with what the oracle
// needs to re-derive its answer.
type request struct {
	kind   kind
	path   string              // URL path and query
	body   []byte              // POST body, nil for GET
	user   int32               // the queried user (first of a batch)
	users  []int32             // kBatch members
	window int                 // kConstrained window index
	events []serve.IngestEvent // kIngest payload, for the shadow recommender
	check  bool                // keep the response body for the oracle
}

func (r *request) method() string {
	if r.body != nil || r.kind == kCompact || r.kind == kReload {
		return "POST"
	}
	return "GET"
}

// op is one user-visible operation: one request, or a short fixed script
// of them issued back to back (a variants session). Its latency is the
// wall time of the whole script. Only gated ops enter latency_p50_ms and
// latency_p90_ms; the rest (ingest, compact) still count for throughput.
type op struct {
	reqs  []request
	gated bool
}

// round is one fixed-work unit of a run. The single pass is driven by
// one client and timed per op; the closed pass is driven by one
// goroutine per entry, each issuing its ops back to back, and timed as
// a whole. A round without a closed pass takes its throughput from the
// single pass.
type round struct {
	single []op
	closed [][]op
}

// schedule is every request of a run: the first round is the discarded
// warm-up, the rest are measured. It is a pure function of the seed and
// the city (see the build* functions), never of time or of responses.
// Rounds are generated one at a time, in order, each just before it is
// issued: a whole mixed-hot schedule is 40 MB of requests, which would
// sit in the load generator's heap and show up in rss_mb.
type schedule struct {
	n    int          // rounds, counting the warm-up
	next func() round // the next round; call it at most n times
}

// all generates every round that is left.
func (s *schedule) all() []round {
	rounds := make([]round, s.n)
	for i := range rounds {
		rounds[i] = s.next()
	}
	return rounds
}

// bytes serializes the schedule in issue order, so two schedules can be
// compared byte for byte. It consumes the schedule.
func (s *schedule) bytes() []byte {
	var b bytes.Buffer
	put := func(ops []op) {
		for _, o := range ops {
			for i := range o.reqs {
				r := &o.reqs[i]
				fmt.Fprintf(&b, "%s %s %s\n", r.method(), r.path, r.body)
			}
			b.WriteByte('\n')
		}
	}
	for _, r := range s.all() {
		put(r.single)
		for _, c := range r.closed {
			put(c)
		}
		b.WriteString("--\n")
	}
	return b.Bytes()
}

// sizes fixes how much work one round of each workload holds. The
// bench-12k values make a round about a second on the 2-vCPU reference
// box; the tiny values keep the smoke test under ten seconds.
type sizes struct {
	missSingle, missClosed int // joint-miss: requests per client
	hotSingle, hotClosed   int // mixed-hot: requests per client
	hotUsers               int // mixed-hot: size of the hot user set
	coldEvery              int // mixed-hot: every coldEvery-th request is cold
	sessSingle, sessClosed int // variants: sessions per client
	ingestBatches          int // live-churn: ingest POSTs per cycle
	liveQueries            int // live-churn: live GETs per cycle
	reloads                int // live-churn: POST /v1/reload after the cycles
	checks                 int // oracle samples per pass
	clients                int // closed-loop clients
}

var benchSizes = sizes{
	missSingle: 200, missClosed: 200,
	hotSingle: 5000, hotClosed: 5000, hotUsers: 1500, coldEvery: 50,
	sessSingle: 100, sessClosed: 30,
	ingestBatches: 8, liveQueries: 400, reloads: 3,
	checks: 8, clients: 2,
}

// The tiny single passes hold at least 100 gated ops, the fewest that
// leave ten samples beyond a round's p90.
var tinySizes = sizes{
	missSingle: 100, missClosed: 20,
	hotSingle: 300, hotClosed: 100, hotUsers: 60, coldEvery: 50,
	sessSingle: 100, sessClosed: 8,
	ingestBatches: 2, liveQueries: 100, reloads: 1,
	checks: 2, clients: 2,
}

// cycle hands out the entries of a seeded permutation one by one and
// wraps around, so two draws of the same value are a whole permutation
// apart.
type cycle struct {
	perm []int
	next int
}

func newCycle(n int, src *rng.Source) *cycle {
	c := &cycle{perm: make([]int, n)}
	src.Perm(c.perm)
	return c
}

func (c *cycle) draw() int32 {
	v := c.perm[c.next]
	c.next = (c.next + 1) % len(c.perm)
	return int32(v)
}

func userQuery(path string, user int32) string {
	return path + "?user=" + strconv.Itoa(int(user)) + "&n=" + strconv.Itoa(topN)
}

// markChecks flags the first n requests of the given kind in ops for
// the oracle. Users come from a seeded permutation, so "the first n" is
// a random sample of them.
func markChecks(ops []op, k kind, n int) {
	for i := range ops {
		for j := range ops[i].reqs {
			if n == 0 {
				return
			}
			if ops[i].reqs[j].kind == k {
				ops[i].reqs[j].check = true
				n--
			}
		}
	}
}

// buildRounds assembles warm-up plus measured rounds from a per-pass op
// generator, which is called once per pass in issue order.
func buildRounds(rounds int, sz sizes, single, closed int, gen func(n int) []op, kinds ...kind) *schedule {
	return &schedule{n: rounds + 1, next: func() round {
		var rd round
		rd.single = gen(single)
		for _, k := range kinds {
			markChecks(rd.single, k, sz.checks)
		}
		for c := 0; c < sz.clients && closed > 0; c++ {
			ops := gen(closed)
			for _, k := range kinds {
				markChecks(ops, k, (sz.checks+1)/2)
			}
			rd.closed = append(rd.closed, ops)
		}
		return rd
	}}
}

// buildJointMiss: GET /v1/partners for users drawn from one permutation
// cycle. The re-request distance is the whole user population, far above
// the 4096-entry cache, so every request misses.
func buildJointMiss(seed uint64, users, rounds int, sz sizes) *schedule {
	cyc := newCycle(users, rng.New(seed))
	gen := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			u := cyc.draw()
			ops[i] = op{gated: true, reqs: []request{{kind: kPartners, path: userQuery("/v1/partners", u), user: u}}}
		}
		return ops
	}
	return buildRounds(rounds, sz, sz.missSingle, sz.missClosed, gen, kPartners)
}

// buildMixedHot: 70% GET /v1/events, 30% GET /v1/partners. Every
// coldEvery-th request goes to a never-repeating cold user; the rest go
// to a hot set whose 2·hotUsers keys fit the cache. The warm-up round
// first touches every hot key once, so measured hot requests all hit
// and the hit ratio is 1 - 1/coldEvery by construction.
func buildMixedHot(seed uint64, users, rounds int, sz sizes) *schedule {
	src := rng.New(seed)
	cyc := newCycle(users, src)
	hot := make([]int32, sz.hotUsers)
	for i := range hot {
		hot[i] = cyc.draw()
	}
	// The rest of the permutation is the cold pool; it is drawn in order
	// and a run uses far less than one cycle of it.
	issued := 0
	one := func(u int32, events bool) op {
		if events {
			return op{gated: true, reqs: []request{{kind: kEvents, path: userQuery("/v1/events", u), user: u}}}
		}
		return op{gated: true, reqs: []request{{kind: kPartners, path: userQuery("/v1/partners", u), user: u}}}
	}
	gen := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			issued++
			events := src.Float64() < 0.7
			u := hot[src.Intn(len(hot))]
			if issued%sz.coldEvery == 0 {
				u = cyc.draw()
			}
			ops[i] = one(u, events)
		}
		return ops
	}
	s := buildRounds(rounds, sz, sz.hotSingle, sz.hotClosed, gen, kEvents, kPartners)
	primed, rest := false, s.next
	s.next = func() round {
		rd := rest()
		if !primed {
			primed = true
			prime := make([]op, 0, 2*len(hot))
			for _, u := range hot {
				prime = append(prime, one(u, true), one(u, false))
			}
			rd.single = append(prime, rd.single...)
		}
		return rd
	}
	return s
}

// window is one of the fixed constraint windows of the variants
// workload: a quarter of the test events by start time.
type window struct {
	from, until time.Time
}

func (w window) constraint() ebsn.Constraint {
	return ebsn.Constraint{From: w.from, Until: w.until}
}

// buildVariants: every op is a session of four requests, one per query
// variant — a constrained walk, a 16-user panel batch, a feed join and a
// miss on the Quantized server — so each variant contributes its own
// time to the session latency and a gain for one that costs another
// shows. Constrained, feed and quantized users each come from their own
// permutation cycle and never repeat inside the cache's reach; batch
// answers are not cached.
func buildVariants(seed uint64, users, rounds int, sz sizes, windows []window) *schedule {
	src := rng.New(seed)
	cCyc, bCyc, fCyc, qCyc := newCycle(users, src), newCycle(users, src), newCycle(users, src), newCycle(users, src)
	sessions := 0
	gen := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			w := sessions % len(windows)
			sessions++
			cu, fu, qu := cCyc.draw(), fCyc.draw(), qCyc.draw()
			q := url.Values{
				"user":  {strconv.Itoa(int(cu))},
				"n":     {strconv.Itoa(topN)},
				"from":  {windows[w].from.Format(time.RFC3339)},
				"until": {windows[w].until.Format(time.RFC3339)},
			}
			bu := make([]int32, batchUsers)
			for j := range bu {
				bu[j] = bCyc.draw()
			}
			body, _ := json.Marshal(serve.BatchQueryRequest{Users: bu, N: topN})
			ops[i] = op{gated: true, reqs: []request{
				{kind: kConstrained, path: "/v1/partners?" + q.Encode(), user: cu, window: w},
				{kind: kBatch, path: "/v1/partners", body: body, user: bu[0], users: bu},
				{kind: kFeed, path: userQuery("/v1/feed", fu) + "&m=" + strconv.Itoa(feedM), user: fu},
				{kind: kQuantized, path: userQuery("/v1/partners", qu), user: qu},
			}}
		}
		return ops
	}
	// One check marks a whole session: markChecks counts per kind.
	return buildRounds(rounds, sz, sz.sessSingle, sz.sessClosed, gen, kConstrained, kBatch, kFeed, kQuantized)
}

// buildLiveChurn: every round is one cycle on one client — ingest
// batches, then live queries for distinct users, then a waited
// compaction — so writes sit beside reads but no timing depends on when
// a background goroutine runs. Ingested events reuse words, venue and
// start of dataset events drawn from a seeded permutation. The reloads
// follow the last cycle as a round of their own.
func buildLiveChurn(seed uint64, d *ebsn.Dataset, rounds int, sz sizes) *schedule {
	src := rng.New(seed)
	uCyc := newCycle(d.NumUsers, src)
	eCyc := newCycle(len(d.Events), src)
	return &schedule{n: rounds + 1, next: func() round {
		var ops []op
		for b := 0; b < sz.ingestBatches; b++ {
			evs := make([]serve.IngestEvent, ingestSize)
			for j := range evs {
				e := d.Events[eCyc.draw()]
				evs[j] = serve.IngestEvent{Words: e.Words, Venue: e.Venue, Start: e.Start}
			}
			body, _ := json.Marshal(serve.IngestRequest{Events: evs, Source: "bench"})
			ops = append(ops, op{reqs: []request{{kind: kIngest, path: "/v1/ingest", body: body, events: evs, check: true}}})
		}
		for q := 0; q < sz.liveQueries; q++ {
			u := uCyc.draw()
			ops = append(ops, op{gated: true, reqs: []request{{kind: kLive, path: userQuery("/v1/partners/live", u), user: u}}})
		}
		markChecks(ops, kLive, 4*sz.checks)
		ops = append(ops, op{reqs: []request{{kind: kCompact, path: "/v1/compact?wait=1", check: true}}})
		return round{single: ops}
	}}
}

// buildReloads is the tail of live-churn: the reloads, then live queries
// for users the last cycle already asked about, so the answers after a
// reload (journal replayed into a fresh model) can be checked against
// the shadow recommender too.
func buildReloads(last round, sz sizes) []op {
	var ops []op
	for i := 0; i < sz.reloads; i++ {
		ops = append(ops, op{reqs: []request{{kind: kReload, path: "/v1/reload", check: true}}})
	}
	n := 4 * sz.checks
	for _, o := range last.single {
		if n > 0 && o.reqs[0].kind == kLive {
			r := o.reqs[0]
			r.check = true
			ops = append(ops, op{reqs: []request{r}})
			n--
		}
	}
	return ops
}
