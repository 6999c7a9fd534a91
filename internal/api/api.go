// Package api defines the wire types of the parcluster query service:
// the JSON request/response pairs served by cmd/lgc-serve and implemented
// by internal/service. It lives apart from the service implementation so
// that the root parcluster package (and any client) can re-export or use
// these types without pulling in net/http and expvar — importing a types
// package must not register debug handlers on http.DefaultServeMux as an
// import side effect.
package api

import "parcluster/internal/core"

// Params carries the per-algorithm knobs of a ClusterRequest. Zero values
// select the paper's Table 3 defaults (the same defaults as the top-level
// parcluster options structs). Only the fields of the requested algorithm
// are consulted. Values outside each knob's sane range (rates outside
// (0,1), iteration/walk counts beyond the server's work caps) are rejected
// with a 400 rather than run.
type Params struct {
	Alpha   float64 `json:"alpha,omitempty"`   // PR-Nibble teleportation (default 0.01)
	Epsilon float64 `json:"epsilon,omitempty"` // truncation / push threshold (per-algo default)
	T       int     `json:"t,omitempty"`       // Nibble iteration cap (default 20)
	HeatT   float64 `json:"heat_t,omitempty"`  // heat kernel temperature (default 10)
	N       int     `json:"n,omitempty"`       // HK-PR Taylor degree (default 20)
	K       int     `json:"k,omitempty"`       // rand-HK-PR walk length cap (default 10)
	Walks   int     `json:"walks,omitempty"`   // rand-HK-PR walk count (default 100000)
	// WalkSeed drives rand-HK-PR's and the evolving set's randomness; results
	// are deterministic (and therefore cacheable) for a fixed value.
	WalkSeed uint64 `json:"walk_seed,omitempty"`
	// Beta in (0,1) selects PR-Nibble's β-fraction variant (§3.3).
	Beta float64 `json:"beta,omitempty"`
	// Frontier overrides the engine's frontier-representation mode for this
	// request: "auto", "sparse" or "dense" ("" = the server default).
	// Results are identical in every mode — the knob trades constant
	// factors only — so it does not participate in the cache key.
	Frontier string `json:"frontier,omitempty"`
	// Batching overrides the engine's bit-parallel batching of this
	// request's fan-out: "auto"/"on" allow it (the default), "off" forces
	// the per-unit fan-out. Like Frontier and Procs it is an execution
	// knob: per-unit results are identical either way, so it does not
	// participate in the cache key. It has effect only when the server
	// enables batching (-batch-lanes > 1) and the algorithm is batchable
	// (nibble, or prnibble without a β-fraction).
	Batching string `json:"batching,omitempty"`
	// OriginalRule selects the unoptimized PR-Nibble push rule.
	OriginalRule bool `json:"original_rule,omitempty"`
	// MaxIter / TargetPhi / GrowOnly configure the evolving set process.
	MaxIter   int     `json:"max_iter,omitempty"`
	TargetPhi float64 `json:"target_phi,omitempty"`
	GrowOnly  bool    `json:"grow_only,omitempty"`
}

// ClusterRequest asks for local clusters around one or more seed vertices
// of a registered graph (POST /v1/cluster).
type ClusterRequest struct {
	// Graph names a registry entry (or, when the registry allows dynamic
	// specs, a generator spec such as "caveman:cliques=16,k=12").
	Graph string `json:"graph"`
	// Algo is one of "nibble", "prnibble" (default), "hkpr", "randhk",
	// "evolving".
	Algo string `json:"algo,omitempty"`
	// Seeds is the non-empty list of seed vertices. Each seed is an
	// independent query fanned across the worker pool, unless SeedSet is
	// set, in which case the whole list seeds one diffusion (footnote 5).
	Seeds   []uint32 `json:"seeds"`
	SeedSet bool     `json:"seed_set,omitempty"`
	// Procs is this request's worker budget per diffusion; it is clamped
	// to the engine's per-query maximum (0 = that maximum).
	Procs int `json:"procs,omitempty"`
	// NoCache bypasses the result cache (the result is still stored).
	NoCache bool `json:"no_cache,omitempty"`
	// MaxMembers truncates each result's member list in the response
	// (0 = return all members). Size always reports the true size.
	MaxMembers int    `json:"max_members,omitempty"`
	Params     Params `json:"params,omitempty"`
	// Class is the request's scheduling priority class: "interactive"
	// (default), "batch" or "background". Under saturation the scheduler
	// interleaves token grants by class weight, so interactive queries keep
	// bounded latency while batch backlogs drain at their weighted share.
	Class string `json:"class,omitempty"`
	// DeadlineMS is the request's deadline in milliseconds from arrival
	// (0 = the server's default, if one is configured). Work whose deadline
	// has already passed — or that admission control estimates cannot start
	// in time — is rejected with a structured error instead of run; a
	// deadline expiring mid-run cancels the remaining kernels at their next
	// round boundary.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ClusterResult is one cluster: the outcome of a single diffusion + sweep
// (or evolving set run) from Seeds.
type ClusterResult struct {
	Seeds       []uint32   `json:"seeds"`
	Members     []uint32   `json:"members"`
	Size        int        `json:"size"`
	Truncated   bool       `json:"truncated,omitempty"`
	Conductance float64    `json:"conductance"`
	Volume      uint64     `json:"volume"`
	Cut         uint64     `json:"cut"`
	Stats       core.Stats `json:"stats"`
	Cached      bool       `json:"cached"`
}

// Aggregate summarizes a batch of results.
type Aggregate struct {
	Queries         int      `json:"queries"`
	CacheHits       int      `json:"cache_hits"`
	BestConductance float64  `json:"best_conductance"`
	BestSeeds       []uint32 `json:"best_seeds,omitempty"`
	MeanSize        float64  `json:"mean_size"`
	TotalPushes     int64    `json:"total_pushes"`
	TotalEdges      int64    `json:"total_edges"`
	ElapsedMS       float64  `json:"elapsed_ms"`
}

// ClusterResponse is the reply to a ClusterRequest.
type ClusterResponse struct {
	Graph    string `json:"graph"`
	Vertices int    `json:"vertices"`
	Edges    uint64 `json:"edges"`
	// Epoch identifies the graph version the whole request ran against: the
	// snapshot pinned at admission, unchanged by concurrent ingestion or
	// compaction for the request's lifetime. A client that ingests a batch
	// (receiving epoch E) and then queries is guaranteed a response epoch
	// >= E — never a cached pre-ingest answer.
	Epoch     uint64          `json:"epoch"`
	Algo      string          `json:"algo"`
	Results   []ClusterResult `json:"results"`
	Aggregate Aggregate       `json:"aggregate"`
}

// NCPRequest asks for a network community profile of a registered graph
// (POST /v1/ncp).
type NCPRequest struct {
	Graph string `json:"graph"`
	// Seeds is the number of random seed vertices (default 100); ignored
	// when SeedVertices is non-empty.
	Seeds        int       `json:"seeds,omitempty"`
	SeedVertices []uint32  `json:"seed_vertices,omitempty"`
	Alphas       []float64 `json:"alphas,omitempty"`
	Epsilons     []float64 `json:"epsilons,omitempty"`
	MaxSize      int       `json:"max_size,omitempty"`
	// Envelope returns the log-binned lower envelope instead of the raw
	// scatter.
	Envelope bool   `json:"envelope,omitempty"`
	Procs    int    `json:"procs,omitempty"`
	RNGSeed  uint64 `json:"rng_seed,omitempty"`
	// Class is the scheduling priority class; an NCP profile defaults to
	// "batch" (it is a many-diffusion scan, not an interactive probe).
	Class string `json:"class,omitempty"`
	// DeadlineMS is the deadline in milliseconds from arrival (0 = the
	// server default); see ClusterRequest.DeadlineMS.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// NCPResponse is the reply to an NCPRequest.
type NCPResponse struct {
	Graph     string          `json:"graph"`
	Points    []core.NCPPoint `json:"points"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// GraphInfo describes one entry of the service's graph registry
// (GET /v1/graphs).
type GraphInfo struct {
	Name     string `json:"name"`
	Loaded   bool   `json:"loaded"`
	Vertices int    `json:"vertices,omitempty"`
	Edges    uint64 `json:"edges,omitempty"`
	// Epoch is the graph's current version: 0 for a never-mutated graph,
	// advancing once per accepted ingest batch.
	Epoch uint64 `json:"epoch,omitempty"`
	// Pending is the number of ingested delta records not yet folded into
	// the base CSR by the compactor.
	Pending int `json:"pending,omitempty"`
	// Format is the base graph's in-memory representation: "csr" for the
	// heap CSR, "lgz" for the compressed memory-mapped CSR. Empty until the
	// graph loads.
	Format string `json:"format,omitempty"`
	// LoadMS is how long materializing the graph took (source read or
	// generation, WAL checkpoint + replay included), in milliseconds.
	LoadMS int64 `json:"load_ms,omitempty"`
	// MappedBytes is the size of the memory-mapped .lgz image backing the
	// graph, or 0 for heap representations.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// ResidentHint estimates how many of MappedBytes are currently resident
	// in the page cache (Linux mincore); -1 when the probe is unavailable,
	// omitted for heap graphs. A warmup hint for operators, nothing more.
	ResidentHint int64 `json:"resident_hint,omitempty"`
}

// IngestRequest is a batch of live edge mutations for one registered graph
// (POST /v1/graphs/{name}/edges). The batch is atomic: any invalid record
// (self loop, endpoint outside the universe, malformed pair) rejects the
// whole batch with a 400 and mutates nothing.
type IngestRequest struct {
	// Edges is the list of undirected edges to insert, each a [u, v] pair.
	// Inserting an edge that already exists is a no-op.
	Edges [][2]uint32 `json:"edges,omitempty"`
	// Deletes is the list of undirected edges to remove. Deleting an absent
	// edge is a no-op, keeping delete batches idempotent.
	Deletes [][2]uint32 `json:"deletes,omitempty"`
	// Vertices, when positive, grows the graph's vertex universe to this
	// size before the batch applies, so inserts may reference brand-new
	// vertices. The universe never shrinks.
	Vertices int `json:"vertices,omitempty"`
}

// IngestResponse is the reply to an IngestRequest.
type IngestResponse struct {
	Graph string `json:"graph"`
	// Epoch is the graph version after this batch. Queries answered at this
	// epoch or later see every mutation the batch carried.
	Epoch uint64 `json:"epoch"`
	// Vertices is the universe size after this batch.
	Vertices int `json:"vertices"`
	// Inserted and Deleted count the records accepted from this batch.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Pending is the delta-log length after this batch — the records a
	// future compaction will fold into the base CSR.
	Pending int `json:"pending"`
}

// FrontierModeCounts breaks the executed diffusions down by the frontier
// mode they ran under (cache hits run no diffusion and are not counted).
type FrontierModeCounts struct {
	Auto   int64 `json:"auto"`
	Sparse int64 `json:"sparse"`
	Dense  int64 `json:"dense"`
}

// WorkspaceStats aggregates the per-graph diffusion workspace pools: each
// loaded graph owns a pool of recyclable scratch arenas (the hash tables of
// diffusion vectors, share arrays and ID buffers), and these counters
// report how much allocation the pools absorbed. A healthy
// steady state shows Hits approaching Acquires and BytesRecycled growing
// with traffic.
type WorkspaceStats struct {
	// Pools is the number of per-graph pools (one per loaded graph).
	Pools int `json:"pools"`
	// Acquires counts workspace checkouts across all pools (Hits + Misses).
	Acquires int64 `json:"acquires"`
	// Hits counts checkouts served by recycling a released workspace.
	Hits int64 `json:"hits"`
	// Misses counts checkouts that allocated a fresh workspace (first use,
	// pool drained by concurrent queries, or GC-cleared under pressure).
	Misses int64 `json:"misses"`
	// Releases counts workspaces returned to their pool.
	Releases int64 `json:"releases"`
	// BytesRecycled totals the bytes runs actually borrowed from recycled
	// arenas instead of the allocator — kept hash tables and dense-round
	// buffers, each credited once per checkout: the GC pressure avoided.
	BytesRecycled int64 `json:"bytes_recycled"`
	// The five Result* fields are always 0: a result is an owned
	// allocation, not a checkout of a pooled arena, so there is nothing to
	// count. They stay on the wire only because the benchmark harness
	// (benchmarks/servetrace.go) still reads them, and are removed together
	// with those reads by the next benchmark change.
	ResultAcquires      int64 `json:"result_acquires"`
	ResultHits          int64 `json:"result_hits"`
	ResultMisses        int64 `json:"result_misses"`
	ResultReleases      int64 `json:"result_releases"`
	ResultBytesRecycled int64 `json:"result_bytes_recycled"`
	// BatchAcquires counts batch-workspace checkouts across all pools
	// (BatchHits + BatchMisses). A batch workspace carries the lane-striped
	// scratch of one bit-parallel batched diffusion — far heavier than a
	// per-run workspace (~1.5–2 KB per vertex), which is why it has its own
	// pool tier and counters.
	BatchAcquires int64 `json:"batch_acquires"`
	// BatchHits counts batch-workspace checkouts served by recycling.
	BatchHits int64 `json:"batch_hits"`
	// BatchMisses counts batch-workspace checkouts that allocated fresh.
	BatchMisses int64 `json:"batch_misses"`
	// BatchReleases counts batch workspaces returned to their pool.
	BatchReleases int64 `json:"batch_releases"`
	// BatchBytesRecycled totals the lane-striped bytes served from recycled
	// batch workspaces instead of the allocator.
	BatchBytesRecycled int64 `json:"batch_bytes_recycled"`
}

// Add accumulates o into w. Every aggregation site (the registry's per-pool
// sum, the expvar cross-engine sum) goes through this method so a new
// counter cannot be summed in one place and silently dropped in another.
func (w *WorkspaceStats) Add(o WorkspaceStats) {
	w.Pools += o.Pools
	w.Acquires += o.Acquires
	w.Hits += o.Hits
	w.Misses += o.Misses
	w.Releases += o.Releases
	w.BytesRecycled += o.BytesRecycled
	w.BatchAcquires += o.BatchAcquires
	w.BatchHits += o.BatchHits
	w.BatchMisses += o.BatchMisses
	w.BatchReleases += o.BatchReleases
	w.BatchBytesRecycled += o.BatchBytesRecycled
}

// SchedClassStats is one priority class's scheduler counters.
type SchedClassStats struct {
	// Weight is the class's configured stride-scheduling weight: under
	// saturation, classes receive token grants in proportion to it.
	Weight int `json:"weight"`
	// Admitted counts requests admitted into the class.
	Admitted int64 `json:"admitted"`
	// Rejected counts requests refused at admission because the class's
	// queue bound was reached (the HTTP layer's 429s).
	Rejected int64 `json:"rejected"`
	// DeadlineMissed counts deadline failures: rejected at admission as
	// unmeetable, expired while queued, or expired before a unit started.
	DeadlineMissed int64 `json:"deadline_missed"`
	// Completed counts unit token grants released (finished kernels).
	Completed int64 `json:"completed"`
	// QueueDepth is the number of unit waiters currently queued.
	QueueDepth int `json:"queue_depth"`
	// Open is the number of admitted requests not yet finished.
	Open int `json:"open"`
}

// add accumulates o into s (counter fields only; Weight is configuration
// and keeps the receiver's value).
func (s *SchedClassStats) add(o SchedClassStats) {
	if s.Weight == 0 {
		s.Weight = o.Weight
	}
	s.Admitted += o.Admitted
	s.Rejected += o.Rejected
	s.DeadlineMissed += o.DeadlineMissed
	s.Completed += o.Completed
	s.QueueDepth += o.QueueDepth
	s.Open += o.Open
}

// SchedStats is a snapshot of the request scheduler: the admission-control
// and worker-token layer every query passes through (internal/sched).
type SchedStats struct {
	// Tokens and Avail are the total and currently free worker tokens.
	Tokens int `json:"tokens"`
	Avail  int `json:"avail"`
	// Draining reports whether the scheduler has stopped admitting work
	// (graceful shutdown in progress).
	Draining bool `json:"draining"`
	// Interactive, Batch and Background are the per-class counters.
	Interactive SchedClassStats `json:"interactive"`
	Batch       SchedClassStats `json:"batch"`
	Background  SchedClassStats `json:"background"`
	// GraphInFlight maps graph name to worker tokens currently granted
	// against it — the per-graph fairness picture at a glance.
	GraphInFlight map[string]int `json:"graph_in_flight,omitempty"`
	// ServiceModels is the number of (graph, algorithm) pairs with a
	// learned unit service-time model feeding admission-control wait
	// estimates (bounded by an internal cap).
	ServiceModels int `json:"service_models"`
}

// Add accumulates o into s, mirroring WorkspaceStats.Add for the expvar
// cross-engine aggregation.
func (s *SchedStats) Add(o SchedStats) {
	s.Tokens += o.Tokens
	s.Avail += o.Avail
	s.Draining = s.Draining || o.Draining
	s.Interactive.add(o.Interactive)
	s.Batch.add(o.Batch)
	s.Background.add(o.Background)
	s.ServiceModels += o.ServiceModels
	for g, n := range o.GraphInFlight {
		if s.GraphInFlight == nil {
			s.GraphInFlight = make(map[string]int, len(o.GraphInFlight))
		}
		s.GraphInFlight[g] += n
	}
}

// BatchStats counts the engine's bit-parallel batched diffusions: groups
// of same-parameter units coalesced into one shared-traversal run.
type BatchStats struct {
	// Groups counts batched runs executed (each covering 2–64 units).
	Groups int64 `json:"groups"`
	// LanesFilled totals the units served by batched runs; LanesFilled /
	// (64 * Groups) is the mean lane occupancy.
	LanesFilled int64 `json:"lanes_filled"`
	// TraversalsSaved totals the per-unit traversals avoided by coalescing
	// (units per group minus the one shared traversal).
	TraversalsSaved int64 `json:"traversals_saved"`
}

// Add accumulates o into b (expvar cross-engine aggregation).
func (b *BatchStats) Add(o BatchStats) {
	b.Groups += o.Groups
	b.LanesFilled += o.LanesFilled
	b.TraversalsSaved += o.TraversalsSaved
}

// IngestStats aggregates the live-mutation counters of every versioned
// graph the registry holds (GET /v1/stats "ingest" block and the
// ingest.{edges,batches,compactions,epoch} metrics).
type IngestStats struct {
	// Edges and Deletes count accepted insert / delete records.
	Edges   int64 `json:"edges"`
	Deletes int64 `json:"deletes"`
	// Batches counts accepted ingest batches (epoch advances).
	Batches int64 `json:"batches"`
	// Compactions counts delta-log folds into a fresh base CSR.
	Compactions int64 `json:"compactions"`
	// Pending is the current total delta-log length across graphs.
	Pending int64 `json:"pending"`
	// Epoch sums the per-graph epochs — a monotone mutation clock for the
	// whole registry (per-graph epochs are in GET /v1/graphs).
	Epoch uint64 `json:"epoch"`
	// Pins is the number of currently pinned snapshots (in-flight requests
	// holding a graph version). A quiescent server shows 0; a value that
	// grows without bound is a snapshot leak.
	Pins int64 `json:"pins"`
}

// Add accumulates o into s (expvar cross-engine aggregation).
func (s *IngestStats) Add(o IngestStats) {
	s.Edges += o.Edges
	s.Deletes += o.Deletes
	s.Batches += o.Batches
	s.Compactions += o.Compactions
	s.Pending += o.Pending
	s.Epoch += o.Epoch
	s.Pins += o.Pins
}

// WalStats aggregates the write-ahead-log counters of every graph the
// registry persists (GET /v1/stats "wal" block and the wal.* metrics).
// All-zero when the server runs without -wal-dir.
type WalStats struct {
	// Enabled reports whether a WAL is configured at all, so a dashboard can
	// tell "durable and idle" apart from "not durable".
	Enabled bool `json:"enabled"`
	// Appends counts batches committed to the log; Bytes their framed size.
	Appends int64 `json:"appends"`
	Bytes   int64 `json:"bytes"`
	// Fsyncs counts explicit fsyncs issued by the log.
	Fsyncs int64 `json:"fsyncs"`
	// ReplayedBatches counts batches re-applied from the log at load time;
	// ReplayMS is the wall-clock time recovery spent scanning and replaying.
	ReplayedBatches int64   `json:"replayed_batches"`
	ReplayMS        float64 `json:"replay_ms"`
	// Segments is the number of log segment files currently on disk;
	// Checkpoints counts compaction checkpoints persisted.
	Segments    int64 `json:"segments"`
	Checkpoints int64 `json:"checkpoints"`
}

// Add accumulates o into s (expvar cross-engine aggregation).
func (s *WalStats) Add(o WalStats) {
	s.Enabled = s.Enabled || o.Enabled
	s.Appends += o.Appends
	s.Bytes += o.Bytes
	s.Fsyncs += o.Fsyncs
	s.ReplayedBatches += o.ReplayedBatches
	s.ReplayMS += o.ReplayMS
	s.Segments += o.Segments
	s.Checkpoints += o.Checkpoints
}

// EngineStats is a snapshot of the query engine's counters
// (GET /v1/stats and the "lgc" expvar).
type EngineStats struct {
	Queries      int64 `json:"queries"`
	Errors       int64 `json:"errors"`
	InFlight     int64 `json:"in_flight"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	// CacheBytes is the approximate heap footprint of the result cache's
	// retained cluster vectors (member + seed payloads). Cached entries are
	// always exact-size owned copies, so this is real retention, bounded by
	// the cache's entry capacity.
	CacheBytes    int64              `json:"cache_bytes"`
	Diffusions    int64              `json:"diffusions"`
	FrontierModes FrontierModeCounts `json:"frontier_modes"`
	Batch         BatchStats         `json:"batch"`
	Ingest        IngestStats        `json:"ingest"`
	Wal           WalStats           `json:"wal"`
	GraphLoads    int64              `json:"graph_loads"`
	Workspace     WorkspaceStats     `json:"workspace"`
	Sched         SchedStats         `json:"sched"`
	AvgLatencyMS  float64            `json:"avg_latency_ms"`
	ProcBudget    int                `json:"proc_budget"`
	// Graphs lists every registered graph with per-graph load timing and,
	// for memory-mapped graphs, format and residency details.
	Graphs []GraphInfo `json:"graphs,omitempty"`
}
