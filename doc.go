// Package parcluster is a Go implementation of the parallel local graph
// clustering algorithms of Shun, Roosta-Khorasani, Fountoulakis and Mahoney,
// "Parallel Local Graph Clustering" (VLDB 2016, arXiv:1604.07515).
//
// A local clustering algorithm finds a low-conductance cluster around a seed
// vertex with work proportional to the size of the cluster found — not the
// size of the graph. This package provides the paper's four diffusion
// methods, each in a sequential and a shared-memory parallel version:
//
//   - Nibble — truncated lazy random walks (Spielman & Teng)
//   - PRNibble — approximate personalized PageRank pushes (Andersen, Chung
//     & Lang), with the paper's optimized update rule
//   - HKPR — deterministic heat kernel PageRank (Kloster & Gleich)
//   - RandHKPR — randomized heat kernel PageRank via sampled random walks
//     (Chung & Simpson)
//
// plus the sweep cut rounding procedure (sequential and work-efficient
// parallel) that converts a diffusion vector into a cluster, and network
// community profile (NCP) computation.
//
// # Quick start
//
//	g := parcluster.MustGenerate("caveman", map[string]int{"cliques": 16, "k": 12})
//	cluster, err := parcluster.FindCluster(g, 0, parcluster.ClusterOptions{})
//	fmt.Println(cluster.Members, cluster.Conductance)
//
// Every algorithm accepts a worker count (0 = all cores) and has a
// Sequential switch selecting the paper's reference sequential
// implementation. All parallel algorithms return clusters with the same
// quality guarantees as their sequential counterparts. The Example
// functions in this package are executed by go test, so they always
// compile and print exactly what the current code produces.
//
// # Frontier modes
//
// The parallel diffusions run on an adaptive sparse/dense frontier engine
// modeled on the real Ligra framework's direction switching. Each
// iteration's frontier is traversed either sparsely (an ID list with a
// degree prefix sum — work proportional to the frontier and its incident
// edges only) or densely (every vertex pulls its neighbours' shares in one
// atomics-free pass over the whole CSR — O(n + 2m) with a much smaller
// constant per edge), and the
// residual/mass vectors likewise promote from per-iteration-sized hash
// tables to flat arrays once their support crosses a fraction of n.
//
// The Frontier option on NibbleOptions, PRNibbleOptions, HKPROptions and
// EvolvingSetOptions selects the strategy: FrontierAuto (the default)
// switches per iteration via Ligra's heuristic — dense when
// |F| + vol(F) > (n + 2m)/20, i.e. when the frontier's incident edges are a
// sizable fraction of the graph, as happens with low epsilons, deep NCP
// sweeps, or large multi-vertex seed sets — while FrontierSparse and
// FrontierDense pin one. All modes perform the same pushes with the same
// values: clusters and Stats are identical, only the constants change.
// Dense rounds are also deterministic to the last float bit at any worker
// count; sparse rounds with several workers add in schedule order. The
// lgc command exposes the knob as -frontier; lgc-serve requests set it per
// query with params.frontier.
//
// # Workspace pooling
//
// A dense-mode diffusion needs graph-sized scratch state: three ~16
// bytes/vertex flat vectors plus a share array and frontier ID buffers. Allocating these per call is fine for a one-shot
// query and pure GC pressure for a batch or serving workload, so the
// diffusions can instead borrow them from a per-graph WorkspacePool:
//
//	pool := parcluster.NewWorkspacePool(g)
//	opts := parcluster.ClusterOptions{Workspace: pool}
//	for _, seed := range seeds {
//		cluster, err := parcluster.FindCluster(g, seed, opts)
//		...
//	}
//
// Steady-state pooled runs perform zero graph-sized allocations (DESIGN.md
// §5 records the measured numbers), a pool never changes what is
// computed, and a pool is safe for concurrent use — parallel queries
// check out distinct workspaces. Every algorithm options struct carries the
// same Workspace field, NCP pools its inner loop automatically, and
// lgc-serve gives every loaded graph its own pool, reporting hit/miss and
// bytes-recycled counters under "workspace" in GET /v1/stats. The borrowing
// rules (who acquires, who releases, what happens on panic) are documented
// in docs/ARCHITECTURE.md.
//
// # Batched diffusion
//
// Many same-parameter queries against one graph can share their edge
// traversals: NibbleBatch and PRNibbleBatch run up to MaxBatchLanes (64)
// diffusions as bit lanes of per-vertex uint64 masks, advancing all of
// them through one traversal per round. Each lane's floating-point work
// is identical in value and order to its unbatched run, so per-lane
// results match Nibble/PRNibble (to the bit with one worker) — the batch
// changes wall clock only (11x measured on a 64-seed batch at tight epsilon;
// DESIGN.md §9). lgc-serve applies the same kernels automatically to
// eligible multi-seed requests under -batch-lanes.
//
// # lgc-serve
//
// Command lgc-serve turns the one-shot pipeline into a long-lived query
// service for the paper's interactive-analyst workload: graphs load once
// into a shared registry (concurrent loads are deduplicated), and repeated
// queries are answered from an LRU result cache. Graphs accept live edge
// ingestion (POST /v1/graphs/{name}/edges): each batch advances the
// graph's epoch, queries run against epoch-pinned immutable snapshots,
// and the epoch is part of the cache key — every algorithm is
// deterministic given its parameters, so a cached result always answers
// exactly for the edge set it was computed on and never goes stale.
//
//	lgc-serve -addr :8080 -gen web=caveman:cliques=64,k=16
//	curl -s localhost:8080/v1/cluster -d '{"graph":"web","seeds":[0,16,32]}'
//
// Every request runs under a scheduler (internal/sched) rather than a
// plain worker pool: requests carry a priority class ("interactive" by
// default, "batch", "background") whose configured weight sets its grant
// share under saturation, an optional deadline_ms that is enforced end to
// end (unmeetable work is rejected at admission, running kernels cancel at
// their next round boundary), queued work is served round-robin across
// graphs so one hot graph cannot starve the others, and per-class queue
// bounds turn overload into fast 429 + Retry-After responses. SIGTERM
// drains gracefully: admission stops while in-flight queries and streams
// finish.
//
// It exposes POST /v1/cluster (batched multi-seed local clustering),
// POST /v1/cluster/stream (the same batch as NDJSON, each seed's result
// flushed as its diffusion completes — also via Accept:
// application/x-ndjson on /v1/cluster), POST /v1/ncp (network community
// profiles), GET /v1/graphs, GET /v1/stats (including the scheduler's
// per-class counters), GET /healthz, and expvar counters at /debug/vars,
// all JSON over the standard library's net/http. The request and response
// types are re-exported by this package (ClusterRequest, ClusterResponse,
// NCPRequest, ...); see examples/service for an in-process client and
// cmd/lgc-serve/README.md for the endpoint reference with curl examples.
//
// The internal packages implement the substrates the paper builds on: a
// Ligra-style frontier framework with a sparse push and a dense pull edge
// traversal, lock-free concurrent hash tables and flat touched-list arrays for sparse
// vectors, and work-efficient parallel primitives (prefix sums, filter,
// comparison and integer sorting). See DESIGN.md for the full system
// inventory, the frontier-engine design (§4), and the experiment index
// behind the reproduction of every table and figure in the paper's
// evaluation.
package parcluster
