// Package service is the serving layer of parcluster: it turns the one-shot
// clustering pipeline (diffusion + sweep cut) into a long-lived query engine
// suitable for the paper's interactive-analyst workload (§1), where many
// cheap local queries are issued against a huge shared graph.
//
// The package provides four pieces:
//
//   - Registry: a concurrency-safe graph catalog that loads or generates
//     each graph exactly once (concurrent requests for the same graph are
//     deduplicated, singleflight style) and hands each query a pinned,
//     epoch-stamped immutable snapshot of the graph. Graphs are mutable
//     through Engine.Ingest (an append-only delta overlay per graph; see
//     ingest.go), but no query ever observes a mutation mid-flight: the
//     snapshot pinned at admission answers the whole request.
//   - Engine: a query engine dispatching typed ClusterRequest / NCPRequest
//     values to the core algorithms. Every request passes through the
//     internal/sched scheduler: admission control (per-class queue bounds
//     with 429 backpressure, deadline feasibility checks), weighted
//     priority classes (interactive | batch | background), per-graph
//     fairness, and worker-token grants bounding total concurrency at
//     Config.ProcBudget. Deadlines cancel in-flight kernels at their next
//     round boundary through core.RunConfig.Cancel.
//   - an LRU result cache keyed on (graph at its epoch, algorithm,
//     parameters, seeds). Snapshots are immutable and every algorithm is
//     deterministic given its parameters (rand-HK-PR and the evolving set
//     process take explicit RNG seeds), so a cached result is exactly the
//     result a re-run at that epoch would produce; ingestion advances the
//     epoch, making stale entries unaddressable instead of requiring
//     invalidation. Partial (cancelled) results are never cached.
//   - Server: an HTTP/JSON front end (see cmd/lgc-serve) exposing
//     POST /v1/cluster, POST /v1/cluster/stream, POST /v1/ncp,
//     POST /v1/graphs/{name}/edges, GET /v1/graphs, GET /v1/stats,
//     GET /healthz and expvar counters, using only the standard library.
//
// Batched multi-seed queries: a ClusterRequest carries a list of seed
// vertices. By default each seed is an independent work unit fanned across
// the scheduler (per-seed clusters plus aggregate statistics come back
// together); with SeedSet the whole list instead seeds a single diffusion
// (footnote 5 of the paper). The batch path is a streaming pipeline
// (Engine.StreamCluster): each unit's result is delivered — and, on the
// NDJSON endpoints, encoded and flushed — as the unit completes, so a
// 10^4-seed batch emits its first cluster after the first diffusion
// instead of the last. A result owns its memory once it leaves the
// pipeline: the one copy made out of the unit's result arena serves the
// requester and the cache alike, and the arena is back in its pool before
// the unit is published.
package service

import "errors"

// ErrUnknownGraph reports a request against a graph name the registry
// cannot resolve. The HTTP layer maps it to 404.
var ErrUnknownGraph = errors.New("unknown graph")

// ErrBadRequest reports a request that is syntactically valid JSON but
// semantically invalid (unknown algorithm, out-of-range seed, ...). The
// HTTP layer maps it to 400.
var ErrBadRequest = errors.New("bad request")
