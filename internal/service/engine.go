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
	"parcluster/internal/obs"
	"parcluster/internal/sched"
	"parcluster/internal/sparse"
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
	reg        *Registry
	sched      *sched.Scheduler
	maxProcs   int
	batchLanes int
	cache      *lruCache

	// flights coalesces concurrent cache misses on the same key: the first
	// arrival computes, later single-unit arrivals wait for its result
	// instead of re-running the diffusion (same singleflight shape as
	// Registry.loads; see request.lookup for who waits and who does not).
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
		tracer:        tracer,
		metrics:       newEngineMetrics(),
		maxProcs:      maxProcs,
		batchLanes:    lanes,
		cache:         newLRUCache(size), // retains nothing when size < 0
		flights:       make(map[string]*flight),
		maxDeltaEdges: maxDelta,
		compactKick:   make(chan struct{}, 1),
		compactDone:   make(chan struct{}),
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
	s := EngineStats{
		Queries:      e.queries.Load(),
		Errors:       e.errors.Load(),
		InFlight:     e.inFlight.Load(),
		CacheHits:    e.hits.Load(),
		CacheMisses:  e.misses.Load(),
		CacheEntries: e.cache.len(),
		CacheBytes:   e.cache.bytes(),
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

// scope is what an admitted request holds for as long as it runs: its
// scheduler ticket, its pinned graph snapshot, and the context — the
// caller's, bounded by the admission deadline — that governs its graph-load
// wait, its token waits and its kernels. Whoever ends the request, on
// whichever path, calls Close; each of the three is returned once however
// often that happens.
type scope struct {
	e      *Engine
	ctx    context.Context
	cancel context.CancelFunc
	ticket *sched.Ticket
	pin    *PinnedGraph
	tr     *obs.Trace // nil for untraced requests
}

// enter resolves a request's class (defaultClass when it names none) and
// deadline, performs admission control against the scheduler, and pins the
// graph's current epoch, recording the "admission" and "graph_load" spans.
// algo keys the scheduler's per-(graph, algorithm) service-time model. The
// request context governs everything after admission — including the
// graph-load wait, so a deadline cannot be burned inside a slow first load.
func (e *Engine) enter(ctx context.Context, graphName, algo, class string, deadlineMS int64, defaultClass sched.Class) (*scope, error) {
	tr := obs.FromContext(ctx)
	admitStart := time.Now()
	cls := defaultClass
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
		deadline = admitStart.Add(time.Duration(deadlineMS) * time.Millisecond)
	}
	ticket, err := e.sched.Admit(cls, graphName, algo, deadline)
	if err != nil {
		return nil, err
	}
	tr.Span("admission", admitStart)
	tr.Annotate(graphName, algo, ticket.Class().String())
	sc := &scope{e: e, ticket: ticket, tr: tr}
	if dl := ticket.Deadline(); !dl.IsZero() {
		sc.ctx, sc.cancel = context.WithDeadline(ctx, dl)
	} else {
		sc.ctx, sc.cancel = context.WithCancel(ctx)
	}
	loadStart := time.Now()
	if sc.pin, err = e.reg.Acquire(sc.ctx, graphName); err != nil {
		sc.cancel()
		ticket.Close()
		return nil, err
	}
	tr.Span("graph_load", loadStart)
	return sc, nil
}

// Close cancels the request context and returns the admission slot and the
// epoch pin. Idempotent.
func (s *scope) Close() {
	s.cancel()
	s.ticket.Close()
	s.pin.Release()
}

// acquire waits for procs worker tokens through the request's ticket,
// feeding the queue-wait histogram and the "queue_wait" span.
func (s *scope) acquire(procs int) (*sched.Grant, error) {
	start := time.Now()
	grant, err := s.ticket.Acquire(s.ctx, procs)
	s.e.metrics.queueWait.With(s.ticket.Class().String()).Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	s.tr.Span("queue_wait", start)
	return grant, nil
}

// settle returns the tokens of a kernel run that computed units results and
// reports whether those results may be used. A run whose context ended
// mid-kernel (deadline, client gone) stopped at a round boundary: what it
// produced is partial — the caller must discard it, never cache, publish or
// serve it — and how long it ran says nothing about what the work costs, so
// its tokens go back without teaching the scheduler's service-time models.
func (s *scope) settle(grant *sched.Grant, units int) error {
	if err := s.ctx.Err(); err != nil {
		grant.Abandon()
		return err
	}
	grant.ReleaseUnits(units)
	return nil
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
// and parses the frontier mode (FrontierAuto when the request names none).
func resolveParams(algo string, p Params) (resolved, error) {
	if algo == "" {
		algo = "prnibble"
	}
	frontier := core.FrontierAuto
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

// Cluster answers a ClusterRequest with the whole batch gathered: it
// consumes a ClusterStream (see StreamCluster) to completion, assembling the
// per-unit results in request order. The context bounds graph-load waits
// and scheduler queueing, and — together with the request's deadline —
// cancels in-flight kernels at their next round boundary. The response owns
// its memory, but its Members slices are shared with the result cache:
// callers read them and never write them.
func (e *Engine) Cluster(ctx context.Context, req *ClusterRequest) (*ClusterResponse, error) {
	st, err := e.StreamCluster(ctx, req)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	results := make([]ClusterResult, st.Units)
	for {
		idx, res, ok := st.Next()
		if !ok {
			break
		}
		results[idx] = *res
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	return &ClusterResponse{
		Graph:     st.Graph,
		Vertices:  st.Vertices,
		Edges:     st.Edges,
		Epoch:     st.Epoch,
		Algo:      st.Algo,
		Results:   results,
		Aggregate: st.Aggregate(),
	}, nil
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
	idx int
	res ClusterResult
	err error
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

	sc    *scope // the stream is the request's ticket and epoch-pin holder
	ch    chan streamUnit
	start time.Time

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
// pipeline: one work unit per seed (or one for the whole set under
// seed_set), planned into groups that each walk the stations of
// request.runGroup, every group's tokens acquired through the request's
// scheduler ticket. Errors before the first result — validation, admission
// (queue full, unmeetable deadline), graph resolution — are returned here,
// before any response bytes exist; later failures surface through the
// stream itself.
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
	rp, err := resolveParams(req.Algo, req.Params)
	if err != nil {
		return nil, err
	}
	if rp.algo == "evolving" && req.SeedSet && len(req.Seeds) > 1 {
		return nil, fmt.Errorf("%w: the evolving set process starts from a single vertex; drop seed_set to run one process per seed", ErrBadRequest)
	}
	sc, err := e.enter(ctx, req.Graph, rp.algo, req.Class, req.DeadlineMS, sched.Interactive)
	if err != nil {
		return nil, err
	}
	// The pinned snapshot is the whole request's world: every unit runs
	// against this epoch's CSR, and the epoch qualifies every cache key, so
	// entries computed at older epochs can never answer this request.
	g := sc.pin.G
	n := g.NumVertices()
	for _, s := range req.Seeds {
		// Compare in uint64: int(s) can wrap negative on 32-bit platforms.
		if uint64(s) >= uint64(n) {
			sc.Close()
			return nil, fmt.Errorf("%w: seed vertex %d out of range [0,%d)", ErrBadRequest, s, n)
		}
	}

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
		Epoch:    sc.pin.Epoch,
		Algo:     rp.algo,
		Units:    len(units),
		sc:       sc,
		// Buffered to the batch size so workers never block on the
		// consumer: a slow client cannot pin worker goroutines, and error
		// drains see every unit without deadlock.
		ch:      make(chan streamUnit, len(units)),
		start:   start,
		agg:     Aggregate{Queries: len(units), BestConductance: 2},
		bestIdx: len(units),
	}
	r := &request{
		sc: sc, st: st, req: req, rp: rp,
		keyBase: epochKey(req.Graph, sc.pin.Epoch),
		units:   units,
		procs:   e.resolveProcs(req.Procs),
		width:   1,
	}
	if e.batchEligible(rp, req, len(units)) {
		r.width = e.batchLanes
	}
	r.start()
	return st, nil
}

// request is one admitted ClusterRequest on its way through the pipeline:
// what every group of its units needs to walk the stations of runGroup.
type request struct {
	sc      *scope
	st      *ClusterStream // results and failures go to st.ch
	req     *ClusterRequest
	rp      resolved
	keyBase string // epoch-qualified graph fragment of every cache key
	units   [][]uint32
	procs   int
	// width is the number of consecutive units planned into one group: 1
	// runs each unit through its algorithm's own kernel, more shares one
	// bit-parallel traversal among the group's units (see batchEligible).
	width int
}

// start plans the request's units into groups of r.width, in request
// order, and starts the workers that run them; the last worker out closes
// the stream's channel. A lane workspace is n × 64 floats, so a request
// keeps one alive at a time: its lane groups run back to back on one
// goroutine. Width-1 groups fan over enough workers to keep the token
// budget saturated with single-proc units, but never one goroutine per seed
// — a large batch must not burn a stack per unit.
func (r *request) start() {
	workers := 1
	if r.width == 1 {
		workers = min(r.sc.e.sched.Tokens(), len(r.units))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := (int(next.Add(1)) - 1) * r.width
				if lo >= len(r.units) {
					return
				}
				r.runGroup(lo, min(lo+r.width, len(r.units)))
			}
		}()
	}
	go func() {
		wg.Wait()
		close(r.st.ch)
	}()
}

// Next blocks for the next completed unit and returns its request index
// and result, which owns its memory (shared with the result cache; see
// Cluster). ok is false once the stream is exhausted or failed; check Err
// afterwards. On a unit failure the stream cancels the remaining work and
// records the root-cause error.
func (st *ClusterStream) Next() (idx int, res *ClusterResult, ok bool) {
	if st.done {
		return 0, nil, false
	}
	for u := range st.ch {
		if u.err != nil {
			st.abort(u.err)
			return 0, nil, false
		}
		st.account(u.idx, &u.res)
		return u.idx, &u.res, true
	}
	st.done = true
	st.finish(nil)
	return 0, nil, false
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

// Close abandons the stream: outstanding work is cancelled and the
// request's admission slot returns to the scheduler. Results already handed
// out by Next stay valid. Idempotent; safe after exhaustion.
func (st *ClusterStream) Close() {
	if !st.done {
		st.abort(nil)
	}
}

// abort is the terminal error path: cancel the rest of the batch, wait for
// the workers to drain (cancelled units fail fast at the token gate;
// running kernels stop at their next round), and keep the most informative
// error — a unit's own failure beats the ctx.Canceled its cancellation
// inflicted on its neighbors.
func (st *ClusterStream) abort(err error) {
	st.done = true
	st.sc.cancel()
	for u := range st.ch {
		if u.err != nil && errors.Is(err, context.Canceled) && !errors.Is(u.err, context.Canceled) {
			err = u.err
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
		e := st.sc.e
		st.sc.Close()
		if err != nil {
			e.errors.Add(1)
		} else {
			e.latencyUS.Add(time.Since(st.start).Microseconds())
			e.completed.Add(1)
		}
		e.inFlight.Add(-1)
		e.metrics.requestDur.
			With(st.Algo, st.sc.ticket.Class().String(), outcomeLabel(err)).
			Observe(time.Since(st.start))
	})
}

// flight is one in-progress computation of a cache key.
type flight struct {
	done chan struct{}
	res  *ClusterResult
	err  error
}

// lane is one diffusion a group runs: a unit that missed the cache and is
// the first of its key within the group. dups are later units of the group
// with the same key, served copies of this lane's result exactly as flight
// followers are; fl is the flight this lane leads (nil for a NoCache
// request, or when another request already leads the key).
type lane struct {
	idx  int
	key  string
	fl   *flight
	dups []int
}

// runGroup answers units[lo:hi] by walking the pipeline's stations once:
// lookup, tokens, kernel, discard-if-cancelled, publish. A group costs the
// scheduler the same tokens whatever its width — which is exactly the
// traversal-sharing win of a lane group — and returns them as len(lanes)
// completed units, so the per-(graph, algo) service model learns the
// per-unit cost, not the group cost.
func (r *request) runGroup(lo, hi int) {
	sc := r.sc
	e := sc.e
	var lanes []*lane
	for i := lo; i < hi; i++ {
		// The key is formatted here, not inside lookup: fmt's float path is
		// the deepest call a worker's fresh goroutine stack sees, and under
		// lookup's frame it costs every request one more stack growth.
		key := r.rp.key(r.keyBase, r.units[i])
		if l := r.lookup(i, key, lanes); l != nil {
			lanes = append(lanes, l)
		}
	}
	if len(lanes) == 0 {
		return
	}
	grant, err := sc.acquire(r.procs)
	if err != nil {
		r.fail(lanes, err)
		return
	}
	e.diffusions.Add(int64(len(lanes)))
	if r.rp.algo != "randhk" {
		// rand-HK-PR aggregates walk endpoints and never touches the
		// frontier engine, so it does not count toward the mode stats.
		e.modeCounts[r.rp.frontier].Add(int64(len(lanes)))
	}
	var result func(j int) *ClusterResult // lane j's answer
	if r.width == 1 {
		res := r.runUnit(lanes[0])
		result = func(int) *ClusterResult { return res }
	} else {
		// Each lane is swept as it is published, after the tokens are back:
		// the first result reaches the client one sweep after the shared
		// traversal, and a cancelled group sweeps nothing.
		vecs, sts := r.runLanes(lanes)
		result = func(j int) *ClusterResult { return r.sweep(lanes[j], vecs[j], sts[j]) }
	}
	if err := sc.settle(grant, len(lanes)); err != nil {
		r.fail(lanes, err)
		return
	}
	for j, l := range lanes {
		// One exact-size copy of the lane's answer serves every consumer —
		// the requester, the cache, flight followers and in-group duplicates
		// (see cache.go).
		owned := detachResult(result(j))
		e.cache.put(l.key, owned)
		e.land(l, owned, nil)
		for _, d := range l.dups {
			r.serve(d, owned)
		}
		r.st.ch <- streamUnit{idx: l.idx, res: trim(owned, r.req.MaxMembers)}
	}
}

// lookup is the first station for unit i, whose cache key is key: it answers
// the unit without running it — from the cache, or by attaching it to the lane (of lanes, the
// group's lanes so far) that already runs its key — or returns the lane to
// run it in. A NoCache request demands a fresh run and bypasses all of it
// (its result is still stored). Concurrent misses on one key coalesce
// through the engine's flights: the first arrival leads, and a width-1
// group that finds the key in flight elsewhere waits for the leader's
// result. A wider group never does — blocking would stall its sibling lanes
// on another request's schedule — so it runs the key in a lane of its own.
func (r *request) lookup(i int, key string, lanes []*lane) *lane {
	e := r.sc.e
	if r.req.NoCache {
		return &lane{idx: i, key: key}
	}
	for {
		if res, ok := e.cache.get(key); ok {
			r.serve(i, res)
			return nil
		}
		for _, first := range lanes {
			if first.key == key {
				first.dups = append(first.dups, i)
				return nil
			}
		}
		var lead *flight
		e.flightMu.Lock()
		f, busy := e.flights[key]
		if !busy {
			lead = &flight{done: make(chan struct{})}
			e.flights[key] = lead
		}
		e.flightMu.Unlock()
		if !busy || r.width > 1 {
			e.misses.Add(1) // only lookups that lead to a run count as misses
			return &lane{idx: i, key: key, fl: lead}
		}
		select {
		case <-f.done:
			if f.err == nil {
				r.serve(i, f.res)
				return nil
			}
			// The leader failed (e.g. its context was cancelled while
			// queueing); retry from the top rather than inheriting an error
			// that belongs to another request.
		case <-r.sc.ctx.Done():
			r.st.ch <- streamUnit{idx: i, err: r.sc.ctx.Err()}
			return nil
		}
	}
}

// serve answers unit i with a copy of a result another run produced — the
// cache's, a flight leader's, or the lane of an earlier unit of the same
// group. res owns its memory and stays immutable; the copy is marked Cached
// and counts as a hit (it was served without re-running the diffusion).
func (r *request) serve(i int, res *ClusterResult) {
	r.sc.e.hits.Add(1)
	hit := *res
	hit.Cached = true
	r.st.ch <- streamUnit{idx: i, res: trim(&hit, r.req.MaxMembers)}
}

// fail ends a group that cannot finish — it was refused its tokens, or its
// kernel was cancelled mid-run: every flight lands with the error, every
// unit riding on the group receives it, and the rest of the request is
// stopped promptly — queued groups fail at the token gate, running kernels
// cancel at their next round.
func (r *request) fail(lanes []*lane, err error) {
	for _, l := range lanes {
		r.sc.e.land(l, nil, err)
		r.st.ch <- streamUnit{idx: l.idx, err: err}
		for _, d := range l.dups {
			r.st.ch <- streamUnit{idx: d, err: err}
		}
	}
	r.sc.cancel()
}

// land ends the flight lane l led, if it led one: followers wake to res,
// which must own its memory, or to err.
func (e *Engine) land(l *lane, res *ClusterResult, err error) {
	if l.fl == nil {
		return
	}
	l.fl.res, l.fl.err = res, err
	e.flightMu.Lock()
	delete(e.flights, l.key)
	e.flightMu.Unlock()
	close(l.fl.done)
}

// runUnit is the width-1 kernel: one diffusion + sweep (or evolving set
// run) for lane l, borrowing graph-sized scratch state from the graph's
// workspace pool. The
// request context stops the kernel at its next round boundary; the partial
// result is the caller's to discard. A traced request receives the "kernel"
// and "sweep" spans plus the kernel's per-round events under the unit's
// index.
func (r *request) runUnit(l *lane) *ClusterResult {
	g, p, seeds := r.sc.pin.G, r.rp.p, r.units[l.idx]
	cfg := core.RunConfig{
		Procs: r.procs, Frontier: r.rp.frontier, Workspace: r.sc.pin.Pool,
		Cancel: r.sc.ctx.Done(), Observer: kernelObserver(r.sc.tr, l.idx),
	}
	kernelStart := time.Now()
	var vec *sparse.Map
	var st core.Stats
	switch r.rp.algo {
	case "evolving":
		res, st := core.EvolvingSetPar(g, seeds[0], core.EvolvingSetOptions{
			MaxIter: p.MaxIter, TargetPhi: p.TargetPhi, GrowOnly: p.GrowOnly,
			Seed: p.WalkSeed, Procs: cfg.Procs, Frontier: cfg.Frontier,
			Workspace: cfg.Workspace, Cancel: cfg.Cancel,
			Observer: cfg.Observer,
		})
		r.kernelDone(kernelStart)
		return &ClusterResult{
			Seeds: seeds, Members: res.Set, Size: len(res.Set),
			Conductance: res.Conductance, Volume: res.Volume, Cut: res.Cut, Stats: st,
		}
	case "nibble":
		vec, st = core.NibbleRun(g, seeds, p.Epsilon, p.T, cfg)
	case "prnibble":
		vec, st = core.PRNibbleRun(g, seeds, p.Alpha, p.Epsilon, r.rp.rule(), p.Beta, cfg)
	case "hkpr":
		vec, st = core.HKPRRun(g, seeds, p.HeatT, p.N, p.Epsilon, cfg)
	case "randhk":
		vec, st = core.RandHKPRRun(g, seeds, p.HeatT, p.K, p.Walks, p.WalkSeed, cfg)
	default:
		panic("service: unreachable algo " + r.rp.algo) // resolveParams validated
	}
	r.kernelDone(kernelStart)
	return r.sweep(l, vec, st)
}

// kernelDone records a kernel run that began at start in the per-algorithm
// histogram and as the trace's "kernel" span.
func (r *request) kernelDone(start time.Time) {
	r.sc.e.metrics.kernelDur.With(r.rp.algo).Observe(time.Since(start))
	r.sc.tr.Span("kernel", start)
}

// rule is the PR-Nibble push rule the request asked for.
func (rp resolved) rule() core.PushRule {
	if rp.p.OriginalRule {
		return core.OriginalRule
	}
	return core.OptimizedRule
}

// sweep rounds lane l's diffusion vector into a ClusterResult, under a
// "sweep" span. Its Members slice is the head of the sweep order, which
// detachResult copies out. (An empty vector sweeps to the empty cluster at
// conductance 1.)
func (r *request) sweep(l *lane, vec *sparse.Map, st core.Stats) *ClusterResult {
	start := time.Now()
	res := core.SweepCutPar(r.sc.pin.G, vec, r.procs)
	r.sc.tr.Span("sweep", start)
	return &ClusterResult{
		Seeds: r.units[l.idx], Members: res.Cluster, Size: len(res.Cluster),
		Conductance: res.Conductance, Volume: res.Volume, Cut: res.Cut, Stats: st,
	}
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
	// scans, not interactive probes. The scope pins one epoch, so every
	// probe runs against the same edge set even under concurrent ingestion.
	start := time.Now()
	sc, err := e.enter(ctx, req.Graph, "ncp", req.Class, req.DeadlineMS, sched.Batch)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	defer func() {
		e.metrics.requestDur.
			With("ncp", sc.ticket.Class().String(), outcomeLabel(err)).
			Observe(time.Since(start))
	}()
	g := sc.pin.G
	for _, s := range req.SeedVertices {
		if uint64(s) >= uint64(g.NumVertices()) {
			return nil, fmt.Errorf("%w: seed vertex %d out of range [0,%d)", ErrBadRequest, s, g.NumVertices())
		}
	}
	procs := e.resolveProcs(req.Procs)
	grant, err := sc.acquire(procs)
	if err != nil {
		return nil, err
	}
	kernelStart := time.Now()
	points := core.NCP(g, core.NCPOptions{
		Seeds:        req.Seeds,
		SeedVertices: req.SeedVertices,
		Alphas:       req.Alphas,
		Epsilons:     req.Epsilons,
		MaxSize:      req.MaxSize,
		Procs:        procs,
		Seed:         req.RNGSeed,
		Cancel:       sc.ctx.Done(),
		Workspace:    sc.pin.Pool,
	})
	sc.tr.Span("kernel", kernelStart)
	// The whole profile is one unit to the scheduler. A profile cut short
	// (client gone, deadline) is not returned as if it were complete.
	if err := sc.settle(grant, 1); err != nil {
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
