package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parcluster/internal/api"
	"parcluster/internal/core"
	"parcluster/internal/graph"
	"parcluster/internal/obs"
	"parcluster/internal/sched"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// The wire types live in internal/api so that clients (including the root
// parcluster package) can use them without importing this package's
// net/http and expvar dependencies; the aliases below keep service.X as
// the canonical spelling inside the serving layer.

// Params carries the per-algorithm knobs of a ClusterRequest.
type Params = api.Params

// ClusterRequest asks for local clusters around one or more seed vertices
// of a registered graph.
type ClusterRequest = api.ClusterRequest

// ClusterResult is one cluster: the outcome of a single diffusion + sweep
// (or evolving set run).
type ClusterResult = api.ClusterResult

// Aggregate summarizes a batch of results.
type Aggregate = api.Aggregate

// ClusterResponse is the reply to a ClusterRequest.
type ClusterResponse = api.ClusterResponse

// NCPRequest asks for a network community profile of a registered graph.
type NCPRequest = api.NCPRequest

// NCPResponse is the reply to an NCPRequest.
type NCPResponse = api.NCPResponse

// EngineStats is a snapshot of the engine's counters.
type EngineStats = api.EngineStats

// Config sizes an Engine.
type Config struct {
	// ProcBudget is the total worker-token budget shared by all in-flight
	// diffusions (0 = GOMAXPROCS). A query waits until its budget is free.
	ProcBudget int
	// MaxProcsPerQuery clamps a single request's Procs (0 = ProcBudget).
	MaxProcsPerQuery int
	// CacheSize is the LRU result-cache capacity in entries (0 = 1024,
	// negative = disable caching).
	CacheSize int
	// DefaultFrontier is the frontier-representation mode used for requests
	// that do not set Params.Frontier (zero value = FrontierAuto).
	DefaultFrontier core.FrontierMode
	// BatchLanes enables bit-parallel batching of multi-seed fan-outs: up
	// to this many same-parameter units of one request are coalesced into a
	// single shared-traversal batched diffusion (clamped to the kernel's
	// 64-lane capacity; 0 or 1 = always fan out per unit). Only batchable
	// algorithms coalesce — nibble, and prnibble without a β-fraction — and
	// Params.Batching "off" opts a request out.
	BatchLanes int
	// ClassWeights are the scheduler's per-class stride weights, indexed by
	// sched.Class; entries <= 0 take the defaults (16/4/1 for
	// interactive/batch/background).
	ClassWeights [sched.NumClasses]int
	// MaxQueue bounds the concurrently admitted (queued + running) requests
	// per class (0 = the scheduler default of 256, negative = unbounded);
	// past the bound, requests fail fast with 429 + Retry-After.
	MaxQueue int
	// DefaultDeadline is applied to requests that carry no deadline_ms
	// (0 = none).
	DefaultDeadline time.Duration
	// TraceRing is the capacity of the recent-trace ring served at
	// /v1/trace (0 = 256, negative = tracing disabled).
	TraceRing int
	// OnDeadlineMiss, when non-nil, receives one event per scheduler
	// deadline miss (class, graph, detection stage — see
	// sched.Config.OnDeadlineMiss, including its held-lock constraints).
	OnDeadlineMiss func(class, graph, stage string)
	// CompactInterval is how often the background compactor folds each
	// graph's pending ingest deltas into a fresh base CSR (0 = 30s,
	// negative = periodic compaction disabled). Compaction passes admit
	// through the scheduler as background-class work, so they yield to
	// queries and stop at drain.
	CompactInterval time.Duration
	// MaxDeltaEdges triggers an immediate compaction pass when an ingest
	// batch leaves a graph with at least this many pending delta records
	// (0 = 65536, negative = no threshold — timer only). It bounds the
	// per-query snapshot-freeze cost, which is linear in the delta log.
	MaxDeltaEdges int
}

// Engine dispatches typed requests to the core algorithms over graphs from
// a Registry, with results cached in an LRU and every request's execution
// governed by the class/deadline/fairness scheduler in internal/sched.
// Safe for concurrent use.
type Engine struct {
	reg             *Registry
	sched           *sched.Scheduler
	maxProcs        int
	defaultFrontier core.FrontierMode
	batchLanes      int

	cacheMu sync.Mutex
	cache   *lruCache

	// flights coalesces concurrent cache misses on the same key: the first
	// arrival computes, later arrivals wait for its result instead of
	// re-running the diffusion (same singleflight shape as Registry.loads).
	flightMu sync.Mutex
	flights  map[string]*flight

	// tracer keeps recent request traces for /v1/trace (nil = disabled);
	// metrics holds the latency histograms /metrics exposes (see observe.go).
	tracer  *obs.Tracer
	metrics engineMetrics

	// The background compactor: a goroutine that periodically (and on
	// kick, when an ingest batch crosses maxDeltaEdges) folds every
	// graph's pending deltas into fresh base CSRs. compactDone closes when
	// the goroutine exits; Close stops it.
	maxDeltaEdges int
	compactKick   chan struct{}
	compactCtx    context.Context
	compactCancel context.CancelFunc
	compactDone   chan struct{}
	closeOnce     sync.Once

	queries    atomic.Int64
	errors     atomic.Int64
	inFlight   atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	diffusions atomic.Int64
	latencyUS  atomic.Int64
	completed  atomic.Int64
	// Executed diffusions by frontier mode (indexed by core.FrontierMode).
	modeCounts [3]atomic.Int64
	// Bit-parallel batching counters (see api.BatchStats).
	batchGroups          atomic.Int64
	batchLanesFilled     atomic.Int64
	batchTraversalsSaved atomic.Int64
}

// NewEngine builds an engine over reg.
func NewEngine(reg *Registry, cfg Config) *Engine {
	budget := cfg.ProcBudget
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	maxProcs := cfg.MaxProcsPerQuery
	if maxProcs <= 0 || maxProcs > budget {
		maxProcs = budget
	}
	size := cfg.CacheSize
	if size == 0 {
		size = 1024
	}
	var tracer *obs.Tracer
	if cfg.TraceRing >= 0 {
		tracer = obs.NewTracer(cfg.TraceRing)
	}
	var onMiss func(sched.Class, string, string)
	if f := cfg.OnDeadlineMiss; f != nil {
		onMiss = func(c sched.Class, graph, stage string) { f(c.String(), graph, stage) }
	}
	lanes := cfg.BatchLanes
	if lanes > core.MaxBatchLanes {
		lanes = core.MaxBatchLanes
	}
	if lanes < 0 {
		lanes = 0
	}
	interval := cfg.CompactInterval
	if interval == 0 {
		interval = 30 * time.Second
	}
	maxDelta := cfg.MaxDeltaEdges
	if maxDelta == 0 {
		maxDelta = 1 << 16
	}
	e := &Engine{
		reg: reg,
		sched: sched.New(sched.Config{
			Tokens:          budget,
			Weights:         cfg.ClassWeights,
			MaxQueue:        cfg.MaxQueue,
			DefaultDeadline: cfg.DefaultDeadline,
			OnDeadlineMiss:  onMiss,
		}),
		tracer:          tracer,
		metrics:         newEngineMetrics(),
		maxProcs:        maxProcs,
		defaultFrontier: cfg.DefaultFrontier,
		batchLanes:      lanes,
		cache:           newLRUCache(size), // nil (disabled) when size < 0
		flights:         make(map[string]*flight),
		maxDeltaEdges:   maxDelta,
		compactKick:     make(chan struct{}, 1),
		compactDone:     make(chan struct{}),
	}
	e.compactCtx, e.compactCancel = context.WithCancel(context.Background())
	if interval > 0 {
		go e.compactor(interval)
	} else {
		close(e.compactDone)
	}
	return e
}

// Close stops the engine's background compactor and waits for an in-flight
// compaction pass to finish. It does not drain queries — that is
// BeginDrain/Drained's job. Idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(e.compactCancel)
	<-e.compactDone
}

// Registry returns the engine's graph registry.
func (e *Engine) Registry() *Registry { return e.reg }

// BeginDrain stops the engine's scheduler from admitting new requests
// (they fail with sched.ErrDraining, a 503) while already-admitted work
// keeps its full service — the first phase of graceful shutdown.
// Idempotent.
func (e *Engine) BeginDrain() { e.sched.BeginDrain() }

// Drained returns a channel closed once BeginDrain has been called and the
// last admitted request has finished.
func (e *Engine) Drained() <-chan struct{} { return e.sched.Drained() }

// Draining reports whether BeginDrain has been called — a cheap single
// flag read, fit for high-frequency health probes (unlike Stats, which
// snapshots every counter).
func (e *Engine) Draining() bool { return e.sched.Draining() }

// SyncWAL fsyncs every graph's write-ahead log (a no-op without one). The
// drain path calls it after quiescence so nothing acknowledged is left
// unsynced.
func (e *Engine) SyncWAL() error { return e.reg.SyncWAL() }

// resolveProcs maps a request's Procs field to an effective per-diffusion
// worker count: 0 (or anything out of range) means the per-query maximum,
// as the request docs promise.
func (e *Engine) resolveProcs(req int) int {
	if req <= 0 || req > e.maxProcs {
		return e.maxProcs
	}
	return req
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() EngineStats {
	e.cacheMu.Lock()
	entries := e.cache.len()
	cacheBytes := e.cache.bytes()
	e.cacheMu.Unlock()
	s := EngineStats{
		Queries:      e.queries.Load(),
		Errors:       e.errors.Load(),
		InFlight:     e.inFlight.Load(),
		CacheHits:    e.hits.Load(),
		CacheMisses:  e.misses.Load(),
		CacheEntries: entries,
		CacheBytes:   cacheBytes,
		Diffusions:   e.diffusions.Load(),
		FrontierModes: api.FrontierModeCounts{
			Auto:   e.modeCounts[core.FrontierAuto].Load(),
			Sparse: e.modeCounts[core.FrontierSparse].Load(),
			Dense:  e.modeCounts[core.FrontierDense].Load(),
		},
		Batch: api.BatchStats{
			Groups:          e.batchGroups.Load(),
			LanesFilled:     e.batchLanesFilled.Load(),
			TraversalsSaved: e.batchTraversalsSaved.Load(),
		},
		Ingest:     e.reg.IngestStats(),
		Wal:        e.reg.WalStats(),
		GraphLoads: e.reg.Loads(),
		Workspace:  e.reg.WorkspaceStats(),
		Sched:      schedStats(e.sched.Stats()),
		ProcBudget: e.sched.Tokens(),
		Graphs:     e.reg.List(),
	}
	if n := e.completed.Load(); n > 0 {
		s.AvgLatencyMS = float64(e.latencyUS.Load()) / float64(n) / 1e3
	}
	return s
}

// schedStats converts a scheduler snapshot to its wire shape.
func schedStats(st sched.Stats) api.SchedStats {
	cls := func(c sched.Class) api.SchedClassStats {
		cs := st.Classes[c]
		return api.SchedClassStats{
			Weight:         cs.Weight,
			Admitted:       cs.Admitted,
			Rejected:       cs.Rejected,
			DeadlineMissed: cs.DeadlineMissed,
			Completed:      cs.Completed,
			QueueDepth:     cs.QueueDepth,
			Open:           cs.Open,
		}
	}
	return api.SchedStats{
		Tokens:        st.Tokens,
		Avail:         st.Avail,
		Draining:      st.Draining,
		Interactive:   cls(sched.Interactive),
		Batch:         cls(sched.Batch),
		Background:    cls(sched.Background),
		GraphInFlight: st.GraphInFlight,
		ServiceModels: st.ServiceModels,
	}
}

// admit resolves a request's class and deadline and performs admission
// control against the scheduler, returning the ticket the fan-out acquires
// its unit tokens through. The caller must Close the ticket on every path.
// admitClass is the class used when the request names none; algo keys the
// scheduler's per-(graph, algorithm) service-time model.
func (e *Engine) admit(graphName, algo, class string, deadlineMS int64, admitClass sched.Class) (*sched.Ticket, error) {
	cls := admitClass
	if class != "" {
		var err error
		if cls, err = sched.ParseClass(class); err != nil {
			return nil, fmt.Errorf("%w: class %q (want interactive, batch or background)", ErrBadRequest, class)
		}
	}
	if deadlineMS < 0 {
		return nil, fmt.Errorf("%w: deadline_ms %d is negative", ErrBadRequest, deadlineMS)
	}
	var deadline time.Time
	if deadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(deadlineMS) * time.Millisecond)
	}
	return e.sched.Admit(cls, graphName, algo, deadline)
}

// requestContext derives the context a request's kernels and token waits
// run under: the caller's context bounded by the ticket's admission
// deadline, if one was resolved.
func requestContext(ctx context.Context, t *sched.Ticket) (context.Context, context.CancelFunc) {
	if dl := t.Deadline(); !dl.IsZero() {
		return context.WithDeadline(ctx, dl)
	}
	return context.WithCancel(ctx)
}

// resolved holds an algorithm name plus its fully-defaulted parameters and
// the frontier mode the diffusion will run under; the algorithm and
// parameters form the canonical cache-key fragment (the mode does not —
// results are mode-independent, like Procs).
type resolved struct {
	algo     string
	p        Params
	frontier core.FrontierMode
}

// resolveParams applies the Table 3 defaults, validates the algorithm name,
// and resolves the frontier mode against the engine default.
func resolveParams(algo string, p Params, defaultFrontier core.FrontierMode) (resolved, error) {
	if algo == "" {
		algo = "prnibble"
	}
	frontier := defaultFrontier
	if p.Frontier != "" {
		var err error
		if frontier, err = core.ParseFrontierMode(p.Frontier); err != nil {
			return resolved{}, fmt.Errorf("%w: frontier mode %q (want auto, sparse or dense)", ErrBadRequest, p.Frontier)
		}
	}
	switch p.Batching {
	case "", "auto", "on", "off":
	default:
		return resolved{}, fmt.Errorf("%w: batching %q (want auto, on or off)", ErrBadRequest, p.Batching)
	}
	switch algo {
	case "nibble":
		if p.Epsilon <= 0 {
			p.Epsilon = 1e-8
		}
		if p.T <= 0 {
			p.T = 20
		}
	case "prnibble":
		if p.Alpha <= 0 {
			p.Alpha = 0.01
		}
		if p.Epsilon <= 0 {
			p.Epsilon = 1e-7
		}
	case "hkpr":
		if p.HeatT <= 0 {
			p.HeatT = 10
		}
		if p.N <= 0 {
			p.N = 20
		}
		if p.Epsilon <= 0 {
			p.Epsilon = 1e-7
		}
	case "randhk":
		if p.HeatT <= 0 {
			p.HeatT = 10
		}
		if p.K <= 0 {
			p.K = 10
		}
		if p.Walks <= 0 {
			p.Walks = 100000
		}
	case "evolving":
		if p.MaxIter <= 0 {
			p.MaxIter = 100
		}
	default:
		return resolved{}, fmt.Errorf("%w: unknown algo %q (want nibble, prnibble, hkpr, randhk or evolving)", ErrBadRequest, algo)
	}
	if err := validateParams(p); err != nil {
		return resolved{}, err
	}
	return resolved{algo: algo, p: p, frontier: frontier}, nil
}

// Parameter bounds: a single request must not be able to demand unbounded
// work or push an algorithm outside its convergent regime. The caps sit an
// order of magnitude or more beyond everything the paper's own experiments
// use (Table 3; §3.5 uses 1e5 walks), so real workloads never hit them,
// while a hostile or fuzzed request fails fast with a 400 instead of
// spinning the proc pool.
const (
	maxIterations = 100000   // nibble T / evolving max_iter
	maxTaylorN    = 10000    // HK-PR Taylor degree
	maxWalkLen    = 1000000  // rand-HK-PR walk length cap K
	maxWalks      = 10000000 // rand-HK-PR walk count
	maxHeatT      = 10000.0  // heat kernel temperature
	// minAlpha / minEpsilon floor the rates whose inverses bound the push
	// algorithms' work (PR-Nibble runs O(1/(eps*alpha)) pushes): without a
	// floor, alpha=1e-12 is "inside (0,1)" yet demands effectively
	// unbounded work. Both floors sit orders of magnitude beyond the
	// paper's extremes (alpha down to 0.001, eps down to 1e-8).
	minAlpha   = 1e-6
	minEpsilon = 1e-12
)

// validateParams rejects fully-defaulted parameters that are outside their
// algorithms' sane (convergent, boundable-work) ranges. Fields the selected
// algorithm does not consult are zero (or client-sent garbage) and are
// still range-checked when non-zero, so an out-of-range value is reported
// even on a parameter the algorithm would ignore.
func validateParams(p Params) error {
	bad := func(field string, format string, args ...any) error {
		return fmt.Errorf("%w: %s %s", ErrBadRequest, field, fmt.Sprintf(format, args...))
	}
	if p.Alpha < 0 || p.Alpha >= 1 {
		return bad("alpha", "%g outside (0,1)", p.Alpha)
	}
	if p.Alpha != 0 && p.Alpha < minAlpha {
		return bad("alpha", "%g below the work floor %g", p.Alpha, minAlpha)
	}
	if p.Epsilon < 0 || p.Epsilon >= 1 {
		return bad("epsilon", "%g outside (0,1)", p.Epsilon)
	}
	if p.Epsilon != 0 && p.Epsilon < minEpsilon {
		return bad("epsilon", "%g below the work floor %g", p.Epsilon, minEpsilon)
	}
	if p.Beta < 0 || p.Beta > 1 {
		return bad("beta", "%g outside [0,1]", p.Beta)
	}
	if p.T > maxIterations {
		return bad("t", "%d exceeds the iteration cap %d", p.T, maxIterations)
	}
	if p.MaxIter > maxIterations {
		return bad("max_iter", "%d exceeds the iteration cap %d", p.MaxIter, maxIterations)
	}
	if p.HeatT > maxHeatT {
		return bad("heat_t", "%g exceeds the cap %g", p.HeatT, maxHeatT)
	}
	if p.N > maxTaylorN {
		return bad("n", "%d exceeds the cap %d", p.N, maxTaylorN)
	}
	if p.K > maxWalkLen {
		return bad("k", "%d exceeds the cap %d", p.K, maxWalkLen)
	}
	if p.Walks > maxWalks {
		return bad("walks", "%d exceeds the cap %d", p.Walks, maxWalks)
	}
	if p.TargetPhi < 0 || p.TargetPhi > 1 {
		return bad("target_phi", "%g outside [0,1]", p.TargetPhi)
	}
	return nil
}

// epochKey is the graph fragment of a cache key: the name qualified by the
// epoch the request pinned. Results computed at different epochs therefore
// live under different keys — ingestion invalidates nothing; entries for
// superseded epochs just stop being addressed and age out of the LRU.
func epochKey(graphName string, epoch uint64) string {
	return fmt.Sprintf("%s@%d", graphName, epoch)
}

// key builds the canonical cache key for one unit of work from the
// epoch-qualified graph fragment (see epochKey). Only parameters the
// algorithm consults appear, so equivalent requests collide as they
// should. Procs is deliberately absent: every algorithm returns the same
// result regardless of worker count.
func (r resolved) key(keyBase string, seeds []uint32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|", keyBase, r.algo)
	p := r.p
	switch r.algo {
	case "nibble":
		fmt.Fprintf(&b, "eps=%g,T=%d", p.Epsilon, p.T)
	case "prnibble":
		fmt.Fprintf(&b, "a=%g,eps=%g,beta=%g,orig=%t", p.Alpha, p.Epsilon, p.Beta, p.OriginalRule)
	case "hkpr":
		fmt.Fprintf(&b, "t=%g,N=%d,eps=%g", p.HeatT, p.N, p.Epsilon)
	case "randhk":
		fmt.Fprintf(&b, "t=%g,K=%d,w=%d,rs=%d", p.HeatT, p.K, p.Walks, p.WalkSeed)
	case "evolving":
		fmt.Fprintf(&b, "it=%d,phi=%g,grow=%t,rs=%d", p.MaxIter, p.TargetPhi, p.GrowOnly, p.WalkSeed)
	}
	b.WriteString("|s=")
	for i, s := range seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	return b.String()
}

// Cluster answers a ClusterRequest with a response that owns all of its
// memory: every borrowed slice is detached (copied) and the arenas are
// recycled before it returns. Use ClusterBorrowed on the serving hot path,
// where the response is immediately serialized and the copies are waste.
func (e *Engine) Cluster(ctx context.Context, req *ClusterRequest) (*ClusterResponse, error) {
	resp, release, err := e.ClusterBorrowed(ctx, req)
	if err != nil {
		return nil, err
	}
	for i := range resp.Results {
		resp.Results[i].Members = append([]uint32(nil), resp.Results[i].Members...)
	}
	release()
	return resp, nil
}

// ClusterBorrowed answers a ClusterRequest with the whole batch gathered:
// it consumes a ClusterStream (see StreamCluster) to completion, assembling
// the per-unit results in request order. The context bounds graph-load
// waits and scheduler queueing, and — together with the request's deadline
// — cancels in-flight kernels at their next round boundary.
//
// The response's per-result Members slices may borrow memory from the
// graph's result-arena pool. The caller must call release — exactly once,
// on every path, including after a failed or abandoned response write —
// after the last read of the response; release is idempotent and recycles
// the arenas. On error the arenas are already released and release is nil.
func (e *Engine) ClusterBorrowed(ctx context.Context, req *ClusterRequest) (*ClusterResponse, func(), error) {
	st, err := e.StreamCluster(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	results := make([]ClusterResult, st.Units)
	releases := make([]func(), 0, st.Units)
	releaseAll := func() {
		for _, r := range releases {
			r()
		}
	}
	for {
		idx, res, release, ok := st.Next()
		if !ok {
			break
		}
		results[idx] = *res
		releases = append(releases, release)
	}
	if err := st.Err(); err != nil {
		releaseAll()
		return nil, nil, err
	}
	resp := &ClusterResponse{
		Graph:     st.Graph,
		Vertices:  st.Vertices,
		Edges:     st.Edges,
		Epoch:     st.Epoch,
		Algo:      st.Algo,
		Results:   results,
		Aggregate: st.Aggregate(),
	}
	var once sync.Once
	release := func() { once.Do(releaseAll) }
	return resp, release, nil
}

// Request-size bounds: a single request must not be able to monopolize the
// server. maxSeedsPerRequest caps the batch fan-out of one ClusterRequest;
// maxNCPRuns caps the seed count of one NCPRequest (the paper's own Figure
// 12 uses 1e5 seeds). Oversized work belongs in multiple requests.
const (
	maxSeedsPerRequest = 10000
	maxNCPRuns         = 100000
)

// streamUnit is one completed (or failed) work unit in flight between the
// fan-out workers and the stream's consumer.
type streamUnit struct {
	idx   int
	res   ClusterResult
	arena *workspace.Result
	err   error
}

// ClusterStream is an in-progress batched query whose per-unit results are
// delivered in completion order, as each diffusion finishes — the engine
// side of the NDJSON streaming path. Obtain one from StreamCluster, consume
// it with Next from a single goroutine, and Close it on every path.
type ClusterStream struct {
	// Graph, Vertices, Edges, Epoch and Algo identify the resolved graph
	// snapshot and algorithm (the stream header's fields). Epoch is the
	// graph version pinned at admission; every unit of the stream runs
	// against exactly that edge set, however much concurrent ingestion
	// lands meanwhile.
	Graph    string
	Vertices int
	Edges    uint64
	Epoch    uint64
	Algo     string
	// Units is the number of result records the stream delivers on success
	// (one per seed, or one for a seed-set request).
	Units int

	eng    *Engine
	ticket *sched.Ticket
	pin    *PinnedGraph
	cancel context.CancelFunc
	ch     chan streamUnit
	start  time.Time

	agg     Aggregate
	sizeSum int
	// bestIdx is the request index behind agg.BestSeeds; ties on
	// conductance resolve to the lowest index so the aggregate is
	// deterministic despite completion-order delivery (the pre-pipeline
	// code folded results in request order).
	bestIdx  int
	err      error
	done     bool
	finished sync.Once
}

// StreamCluster validates and admits a ClusterRequest and starts its
// fan-out: one work unit per seed (or one for the whole set under
// seed_set), distributed over at most token-budget worker goroutines, each
// unit's tokens acquired through the request's scheduler ticket. Errors
// before the first result — validation, admission (queue full, unmeetable
// deadline), graph resolution — are returned here, before any response
// bytes exist; later failures surface through the stream itself.
func (e *Engine) StreamCluster(ctx context.Context, req *ClusterRequest) (*ClusterStream, error) {
	e.queries.Add(1)
	e.inFlight.Add(1)
	st, err := e.openStream(ctx, req)
	if err != nil {
		e.errors.Add(1)
		e.inFlight.Add(-1)
		return nil, err
	}
	return st, nil
}

func (e *Engine) openStream(ctx context.Context, req *ClusterRequest) (*ClusterStream, error) {
	start := time.Now()
	if len(req.Seeds) == 0 {
		return nil, fmt.Errorf("%w: empty seed list", ErrBadRequest)
	}
	if len(req.Seeds) > maxSeedsPerRequest {
		return nil, fmt.Errorf("%w: %d seeds exceeds the per-request maximum %d", ErrBadRequest, len(req.Seeds), maxSeedsPerRequest)
	}
	rp, err := resolveParams(req.Algo, req.Params, e.defaultFrontier)
	if err != nil {
		return nil, err
	}
	if rp.algo == "evolving" && req.SeedSet && len(req.Seeds) > 1 {
		return nil, fmt.Errorf("%w: the evolving set process starts from a single vertex; drop seed_set to run one process per seed", ErrBadRequest)
	}
	tr := obs.FromContext(ctx)
	admitStart := time.Now()
	ticket, err := e.admit(req.Graph, rp.algo, req.Class, req.DeadlineMS, sched.Interactive)
	if err != nil {
		return nil, err
	}
	tr.Span("admission", admitStart)
	tr.Annotate(req.Graph, rp.algo, ticket.Class().String())
	// Every error path below must return the admission slot (and the
	// snapshot pin, once acquired). The request context (caller ctx bounded
	// by the admission deadline) governs everything from here on —
	// including the graph-load wait, so a deadline cannot be burned inside
	// a slow first load.
	runCtx, cancel := requestContext(ctx, ticket)
	var pin *PinnedGraph
	fail := func(err error) (*ClusterStream, error) {
		cancel()
		ticket.Close()
		if pin != nil {
			pin.Release()
		}
		return nil, err
	}
	loadStart := time.Now()
	pin, err = e.reg.Acquire(runCtx, req.Graph)
	if err != nil {
		return fail(err)
	}
	tr.Span("graph_load", loadStart)
	// The pinned snapshot is the whole request's world: every unit runs
	// against this epoch's CSR, and the epoch qualifies every cache key, so
	// entries computed at older epochs can never answer this request.
	g, wsPool := pin.G, pin.Pool
	keyBase := epochKey(req.Graph, pin.Epoch)
	n := g.NumVertices()
	for _, s := range req.Seeds {
		// Compare in uint64: int(s) can wrap negative on 32-bit platforms.
		if uint64(s) >= uint64(n) {
			return fail(fmt.Errorf("%w: seed vertex %d out of range [0,%d)", ErrBadRequest, s, n))
		}
	}
	procs := e.resolveProcs(req.Procs)

	var units [][]uint32
	if req.SeedSet {
		// Canonicalize: the diffusion depends only on the seed *set*, so
		// sort a copy — permutations of the same set share one cache entry.
		set := append([]uint32(nil), req.Seeds...)
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		units = [][]uint32{set}
	} else {
		units = make([][]uint32, len(req.Seeds))
		for i, s := range req.Seeds {
			units[i] = []uint32{s}
		}
	}

	st := &ClusterStream{
		Graph:    req.Graph,
		Vertices: n,
		Edges:    g.NumEdges(),
		Epoch:    pin.Epoch,
		Algo:     rp.algo,
		Units:    len(units),
		eng:      e,
		ticket:   ticket,
		pin:      pin,
		cancel:   cancel,
		// Buffered to the batch size so workers never block on the
		// consumer: a slow client cannot pin worker goroutines, and error
		// drains see every unit without deadlock.
		ch:      make(chan streamUnit, len(units)),
		start:   start,
		agg:     Aggregate{Queries: len(units), BestConductance: 2},
		bestIdx: len(units),
	}

	// Eligible multi-unit requests take the bit-parallel lane path: one
	// planner goroutine groups the units into shared traversals instead of
	// fanning one diffusion per worker.
	if e.batchEligible(rp, req, len(units)) {
		go e.runBatched(runCtx, cancel, st, g, wsPool, ticket, req, rp, keyBase, units, procs)
		return st, nil
	}

	// Fan the units over a bounded set of workers: wide enough to keep the
	// token budget saturated with single-proc units, but not one goroutine
	// per seed — a large batch must not burn a stack per unit.
	workers := e.sched.Tokens()
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				res, arena, err := e.runCached(runCtx, g, wsPool, ticket, keyBase, i, units[i], rp, procs, req.NoCache)
				if err != nil {
					st.ch <- streamUnit{idx: i, err: err}
					// Stop the rest of the batch promptly: queued units fail
					// at the token gate, running kernels cancel at their
					// next round.
					cancel()
					continue
				}
				st.ch <- streamUnit{idx: i, res: trim(res, req.MaxMembers), arena: arena}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(st.ch)
	}()
	return st, nil
}

// Next blocks for the next completed unit and returns its request index,
// the result, and a release closure the caller must invoke (idempotent)
// after its last read of the result — for the HTTP layer, after the
// result's NDJSON line is written. ok is false once the stream is
// exhausted or failed; check Err afterwards. On a unit failure the stream
// cancels the remaining work, releases every undelivered arena, and
// records the root-cause error.
func (st *ClusterStream) Next() (idx int, res *ClusterResult, release func(), ok bool) {
	if st.done {
		return 0, nil, nil, false
	}
	for u := range st.ch {
		if u.err != nil {
			st.abort(u.err)
			return 0, nil, nil, false
		}
		st.account(u.idx, &u.res)
		out := u.res
		return u.idx, &out, releaseOnce(u.arena), true
	}
	st.done = true
	st.finish(nil)
	return 0, nil, nil, false
}

// Err returns the stream's terminal error, if any. Valid once Next has
// returned ok == false.
func (st *ClusterStream) Err() error { return st.err }

// Aggregate returns the batch aggregate over the units delivered so far
// (all of them, after a successful drain); ElapsedMS is measured from
// request start to this call.
func (st *ClusterStream) Aggregate() Aggregate {
	agg := st.agg
	if st.Units > 0 {
		agg.MeanSize = float64(st.sizeSum) / float64(st.Units)
	}
	if agg.BestConductance > 1 {
		agg.BestConductance = 1
	}
	agg.ElapsedMS = float64(time.Since(st.start).Microseconds()) / 1e3
	return agg
}

// Close abandons the stream: outstanding work is cancelled, undelivered
// arenas are released, and the request's admission slot returns to the
// scheduler. Results already handed out by Next stay valid until their own
// release closures run. Idempotent; safe after exhaustion.
func (st *ClusterStream) Close() {
	if !st.done {
		st.done = true
		st.cancel()
		for u := range st.ch {
			if u.arena != nil {
				u.arena.Release()
			}
		}
	}
	st.finish(st.err)
}

// abort is the terminal error path: cancel the rest of the batch, wait for
// the workers to drain (cancelled units fail fast at the token gate;
// running kernels stop at their next round), release every undelivered
// arena, and keep the most informative error — a unit's own failure beats
// the ctx.Canceled its cancellation inflicted on its neighbors.
func (st *ClusterStream) abort(err error) {
	st.done = true
	st.cancel()
	for u := range st.ch {
		if u.err != nil {
			if errors.Is(err, context.Canceled) && !errors.Is(u.err, context.Canceled) {
				err = u.err
			}
			continue
		}
		if u.arena != nil {
			u.arena.Release()
		}
	}
	st.err = err
	st.finish(err)
}

// account folds one delivered result into the running aggregate.
// Conductance ties resolve to the lowest request index, matching a
// request-order fold regardless of completion order.
func (st *ClusterStream) account(idx int, r *ClusterResult) {
	if r.Cached {
		st.agg.CacheHits++
	}
	if r.Conductance < st.agg.BestConductance ||
		(r.Conductance == st.agg.BestConductance && idx < st.bestIdx) {
		st.agg.BestConductance = r.Conductance
		st.agg.BestSeeds = r.Seeds
		st.bestIdx = idx
	}
	st.sizeSum += r.Size
	st.agg.TotalPushes += r.Stats.Pushes
	st.agg.TotalEdges += r.Stats.EdgesTouched
}

// finish settles the stream's engine counters, latency histogram, and
// scheduler ticket exactly once.
func (st *ClusterStream) finish(err error) {
	st.finished.Do(func() {
		st.cancel()
		st.ticket.Close()
		st.pin.Release() // the stream is the request's epoch pin holder
		if err != nil {
			st.eng.errors.Add(1)
		} else {
			st.eng.latencyUS.Add(time.Since(st.start).Microseconds())
			st.eng.completed.Add(1)
		}
		st.eng.inFlight.Add(-1)
		st.eng.metrics.requestDur.
			With(st.Algo, st.ticket.Class().String(), outcomeLabel(err)).
			Observe(time.Since(st.start))
	})
}

// releaseOnce wraps an arena (nil for cache hits) in an idempotent release
// closure.
func releaseOnce(arena *workspace.Result) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			if arena != nil {
				arena.Release()
			}
		})
	}
}

// flight is one in-progress computation of a cache key.
type flight struct {
	done chan struct{}
	res  *ClusterResult
	err  error
}

// runCached answers one unit from the cache or runs it, acquiring the
// unit's worker tokens through the request's scheduler ticket around the
// actual computation. Concurrent misses on the same key coalesce into one
// computation; NoCache requests bypass both the cache and the coalescing
// (they demand a fresh run) but still store their result.
//
// A non-nil returned arena backs the result's Members slice and is owned by
// the caller (released after the response is written). Cache hits and
// flight followers return owned memory and a nil arena: only the goroutine
// that actually ran the diffusion holds borrowed memory.
func (e *Engine) runCached(ctx context.Context, g graph.Graph, wsPool *workspace.Pool, ticket *sched.Ticket, keyBase string, unit int, seeds []uint32, rp resolved, procs int, noCache bool) (*ClusterResult, *workspace.Result, error) {
	key := rp.key(keyBase, seeds)
	if noCache {
		res, _, arena, err := e.compute(ctx, g, wsPool, ticket, key, unit, seeds, rp, procs)
		return res, arena, err
	}
	for {
		e.cacheMu.Lock()
		res, ok := e.cache.get(key)
		e.cacheMu.Unlock()
		if ok {
			e.hits.Add(1)
			hit := *res // callers get a copy; the cached value stays immutable
			hit.Cached = true
			return &hit, nil, nil
		}
		e.flightMu.Lock()
		if f, ok := e.flights[key]; ok {
			e.flightMu.Unlock()
			select {
			case <-f.done:
				if f.err != nil {
					// The leader failed (e.g. its context was cancelled while
					// queueing); retry from the top rather than inheriting an
					// error that belongs to another request.
					continue
				}
				e.hits.Add(1) // served without re-running the diffusion
				hit := *f.res
				hit.Cached = true
				return &hit, nil, nil
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		e.flights[key] = f
		e.flightMu.Unlock()
		e.misses.Add(1) // only lookups that happened count toward the hit rate

		res, owned, arena, err := e.compute(ctx, g, wsPool, ticket, key, unit, seeds, rp, procs)
		if err == nil {
			// Followers may outlive this unit's arena (it is released once
			// our response is written), so the flight publishes an owned
			// copy — the same one the cache stored (made here when caching
			// is off and compute skipped it).
			if owned == nil {
				owned = detachResult(res)
			}
			f.res = owned
		}
		f.err = err
		e.flightMu.Lock()
		delete(e.flights, key)
		e.flightMu.Unlock()
		close(f.done)
		if err != nil {
			return nil, nil, err
		}
		return res, arena, nil
	}
}

// compute runs one diffusion under the scheduler and stores an owned copy
// of the result in the cache (copy-on-store: the cache must never alias an
// arena that is released when the response write finishes — see cache.go).
// The workspace and result arena are borrowed after the token gate: a
// request cancelled or deadline-failed while queueing never checks anything
// out. A run whose context expires mid-kernel stops at the next round
// boundary; its partial result is discarded (never cached, never served)
// and its arena recycled before the error returns. The returned arena backs
// the returned (borrowed) result and is owned by the caller; owned is the
// cache's detached copy, nil when caching is disabled.
func (e *Engine) compute(ctx context.Context, g graph.Graph, wsPool *workspace.Pool, ticket *sched.Ticket, key string, unit int, seeds []uint32, rp resolved, procs int) (res, owned *ClusterResult, arena *workspace.Result, err error) {
	tr := obs.FromContext(ctx)
	queueStart := time.Now()
	grant, err := ticket.Acquire(ctx, procs)
	e.metrics.queueWait.With(ticket.Class().String()).Observe(time.Since(queueStart))
	if err != nil {
		return nil, nil, nil, err
	}
	tr.Span("queue_wait", queueStart)
	arena = wsPool.AcquireResult()
	res = e.runUnit(g, wsPool, arena, seeds, rp, procs, ctx.Done(), tr, unit)
	grant.Release()
	if err := ctx.Err(); err != nil {
		// The deadline fired (or the client vanished) mid-run: the kernel
		// stopped at a round boundary and res is partial. Discard it and
		// recycle the arena — a partial answer must never reach the cache,
		// the flight followers, or the client.
		arena.Release()
		return nil, nil, nil, err
	}
	if e.cache != nil {
		owned = detachResult(res)
		e.cacheMu.Lock()
		e.cache.put(key, owned)
		e.cacheMu.Unlock()
	}
	return res, owned, arena, nil
}

// runUnit executes one diffusion + sweep (or evolving set run), borrowing
// graph-sized scratch state from the graph's workspace pool and snapshotting
// the result into arena. cancel (a context's Done channel) stops the kernel
// at its next round boundary; the partial result is the caller's to discard.
// tr (nil for untraced requests) receives the unit's kernel and sweep spans
// plus the kernels' per-round events under the given unit index.
func (e *Engine) runUnit(g graph.Graph, wsPool *workspace.Pool, arena *workspace.Result, seeds []uint32, rp resolved, procs int, cancel <-chan struct{}, tr *obs.Trace, unit int) *ClusterResult {
	e.diffusions.Add(1)
	if rp.algo != "randhk" {
		// rand-HK-PR aggregates walk endpoints and never touches the
		// frontier engine, so it does not count toward the mode stats.
		e.modeCounts[rp.frontier].Add(1)
	}
	p := rp.p
	kernelStart := time.Now()
	if rp.algo == "evolving" {
		res, st := core.EvolvingSetPar(g, seeds[0], core.EvolvingSetOptions{
			MaxIter: p.MaxIter, TargetPhi: p.TargetPhi, GrowOnly: p.GrowOnly,
			Seed: p.WalkSeed, Procs: procs, Frontier: rp.frontier,
			Workspace: wsPool, Result: arena, Cancel: cancel,
			Observer: kernelObserver(tr, unit),
		})
		e.metrics.kernelDur.With(rp.algo).Observe(time.Since(kernelStart))
		tr.Span("kernel", kernelStart)
		return &ClusterResult{
			Seeds: seeds, Members: res.Set, Size: len(res.Set),
			Conductance: res.Conductance, Volume: res.Volume, Cut: res.Cut, Stats: st,
		}
	}
	var vec *sparse.Map
	var st core.Stats
	cfg := core.RunConfig{
		Procs: procs, Frontier: rp.frontier, Workspace: wsPool,
		Result: arena, Cancel: cancel, Observer: kernelObserver(tr, unit),
	}
	switch rp.algo {
	case "nibble":
		vec, st = core.NibbleRun(g, seeds, p.Epsilon, p.T, cfg)
	case "prnibble":
		rule := core.OptimizedRule
		if p.OriginalRule {
			rule = core.OriginalRule
		}
		vec, st = core.PRNibbleRun(g, seeds, p.Alpha, p.Epsilon, rule, p.Beta, cfg)
	case "hkpr":
		vec, st = core.HKPRRun(g, seeds, p.HeatT, p.N, p.Epsilon, cfg)
	case "randhk":
		vec, st = core.RandHKPRRun(g, seeds, p.HeatT, p.K, p.Walks, p.WalkSeed, cfg)
	default:
		panic("service: unreachable algo " + rp.algo) // resolveParams validated
	}
	e.metrics.kernelDur.With(rp.algo).Observe(time.Since(kernelStart))
	tr.Span("kernel", kernelStart)
	sweepStart := time.Now()
	out := sweepResult(g, seeds, procs, arena, vec, st)
	tr.Span("sweep", sweepStart)
	return out
}

// sweepResult rounds a diffusion vector into a ClusterResult whose Members
// slice is borrowed from arena.
func sweepResult(g graph.Graph, seeds []uint32, procs int, arena *workspace.Result, vec *sparse.Map, st core.Stats) *ClusterResult {
	out := &ClusterResult{Seeds: seeds, Stats: st, Conductance: 1}
	if vec.Len() == 0 {
		return out
	}
	res := core.SweepCutPar(g, vec, procs, arena)
	out.Members = res.Cluster
	out.Size = len(res.Cluster)
	out.Conductance = res.Conductance
	out.Volume = res.Volume
	out.Cut = res.Cut
	return out
}

// trim copies res into a response entry, truncating the member list to
// maxMembers if requested (the cached original keeps all members).
func trim(res *ClusterResult, maxMembers int) ClusterResult {
	out := *res
	if maxMembers > 0 && len(out.Members) > maxMembers {
		out.Members = out.Members[:maxMembers:maxMembers]
		out.Truncated = true
	}
	return out
}

// NCP answers an NCPRequest. The whole profile acquires its proc budget
// once, since the inner loop runs many diffusions back to back.
func (e *Engine) NCP(ctx context.Context, req *NCPRequest) (*NCPResponse, error) {
	start := time.Now()
	e.queries.Add(1)
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)

	resp, err := e.ncp(ctx, req)
	if err != nil {
		e.errors.Add(1)
		return nil, err
	}
	e.latencyUS.Add(time.Since(start).Microseconds())
	e.completed.Add(1)
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	return resp, nil
}

func (e *Engine) ncp(ctx context.Context, req *NCPRequest) (resp *NCPResponse, err error) {
	if req.Seeds > maxNCPRuns || len(req.SeedVertices) > maxNCPRuns {
		return nil, fmt.Errorf("%w: seed count exceeds the per-request maximum %d", ErrBadRequest, maxNCPRuns)
	}
	for _, a := range req.Alphas {
		if a <= 0 || a >= 1 {
			return nil, fmt.Errorf("%w: alpha %g outside (0,1)", ErrBadRequest, a)
		}
	}
	for _, eps := range req.Epsilons {
		if eps <= 0 || eps >= 1 {
			return nil, fmt.Errorf("%w: epsilon %g outside (0,1)", ErrBadRequest, eps)
		}
	}
	// NCP profiles default to the batch class: they are many-diffusion
	// scans, not interactive probes.
	tr := obs.FromContext(ctx)
	admitStart := time.Now()
	ticket, err := e.admit(req.Graph, "ncp", req.Class, req.DeadlineMS, sched.Batch)
	if err != nil {
		return nil, err
	}
	defer ticket.Close()
	tr.Span("admission", admitStart)
	tr.Annotate(req.Graph, "ncp", ticket.Class().String())
	defer func(start time.Time) {
		e.metrics.requestDur.
			With("ncp", ticket.Class().String(), outcomeLabel(err)).
			Observe(time.Since(start))
	}(admitStart)
	// The admission deadline bounds the graph-load wait too.
	runCtx, cancel := requestContext(ctx, ticket)
	defer cancel()
	loadStart := time.Now()
	// An NCP is a many-diffusion scan; pin one epoch so every probe runs
	// against the same edge set even under concurrent ingestion.
	pin, err := e.reg.Acquire(runCtx, req.Graph)
	if err != nil {
		return nil, err
	}
	defer pin.Release()
	g, wsPool := pin.G, pin.Pool
	tr.Span("graph_load", loadStart)
	for _, s := range req.SeedVertices {
		if uint64(s) >= uint64(g.NumVertices()) {
			return nil, fmt.Errorf("%w: seed vertex %d out of range [0,%d)", ErrBadRequest, s, g.NumVertices())
		}
	}
	procs := e.resolveProcs(req.Procs)
	queueStart := time.Now()
	grant, err := ticket.Acquire(runCtx, procs)
	e.metrics.queueWait.With(ticket.Class().String()).Observe(time.Since(queueStart))
	if err != nil {
		return nil, err
	}
	defer grant.Release()
	tr.Span("queue_wait", queueStart)

	kernelStart := time.Now()
	defer func(start time.Time) { tr.Span("kernel", start) }(kernelStart)
	points := core.NCP(g, core.NCPOptions{
		Seeds:        req.Seeds,
		SeedVertices: req.SeedVertices,
		Alphas:       req.Alphas,
		Epsilons:     req.Epsilons,
		MaxSize:      req.MaxSize,
		Procs:        procs,
		Seed:         req.RNGSeed,
		Cancel:       runCtx.Done(),
		Workspace:    wsPool,
	})
	if err := runCtx.Err(); err != nil {
		// The client went away (or the deadline fired) mid-profile; don't
		// return a partial answer as if it were complete.
		return nil, err
	}
	if req.Envelope {
		points = core.LowerEnvelope(points)
	}
	if points == nil {
		points = []core.NCPPoint{} // an empty JSON array, not null
	}
	// core.NCP and LowerEnvelope both return points sorted by size.
	return &NCPResponse{Graph: req.Graph, Points: points}, nil
}
