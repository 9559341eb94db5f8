// Package serve is the production HTTP layer over a trained
// ebsn.Recommender: a long-lived daemon exposing the paper's two online
// recommendation paths (cold-event ranking and TA-accelerated joint
// event-partner ranking) plus live cold-event ingestion, behind a
// middleware stack with request logging, panic recovery, per-request
// timeouts and semaphore-based load shedding. A sharded LRU cache of
// encoded response bodies, keyed with a generation counter, fronts the
// query endpoints: a hit is a lookup and a Write, answered ahead of the
// model lock and the request timeout.
//
// # Observability
//
// The server is instrumented with ebsn/internal/obs. /metrics renders
// Prometheus text exposition by default (counter, gauge and histogram
// families with HELP/TYPE headers; ?format=json keeps the legacy JSON
// panel). Config.TraceEnabled turns on request-scoped spans over the
// query pipeline — cache lookup, TA search, response encode — with
// per-stage timings and TA work attrs (sorted/random accesses,
// candidates, pruning k); spans slower than Config.SlowQueryThreshold
// land in a fixed-capacity ring served at /v1/debug/slowlog. With
// tracing off, spans are nil pointers and cost zero allocations
// (BenchmarkSpanDisabled pins this). OPERATIONS.md documents every
// metric family and a slow-query diagnosis walkthrough.
//
// # Endpoints
//
//	GET  /v1/events?user=U&n=N        top-N cold events for user U
//	GET  /v1/partners?user=U&n=N      top-N event-partner pairs (static index)
//	GET  /v1/partners/live?user=U&n=N same, including live-ingested events
//	GET  /v1/explain?user=U&partner=P&event=E   score decomposition (Eqn. 8)
//	POST /v1/ingest                   fold a brand-new event into serving
//	POST /v1/compact                  fold the live delta into the main index
//	POST /v1/reload                   zero-downtime swap to a new model snapshot
//	GET  /healthz                     liveness (always 200)
//	GET  /readyz                      readiness (503 until Warm completes)
//	GET  /metrics                     Prometheus text (JSON with ?format=json)
//	GET  /v1/debug/slowlog            slow-query ring, newest first
package serve
