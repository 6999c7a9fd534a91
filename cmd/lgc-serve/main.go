// Command lgc-serve runs the parcluster query service: a long-lived HTTP
// daemon that loads each graph once and answers many local-clustering
// queries against it — the paper's interactive-analyst workload (§1) as a
// shared service instead of a one-shot CLI.
//
// Graphs are registered at startup from files (-graph) or generator specs
// (-gen), and by default any generator spec or Table 2 stand-in name can
// also be queried directly (-dynamic); graphs load lazily on first query,
// concurrent loads are deduplicated, and results are cached in an LRU.
//
// Usage:
//
//	lgc-serve -addr :8080 -gen web=caveman:cliques=64,k=16 -graph lj=soc-lj.bin
//	curl -s localhost:8080/v1/cluster -d '{"graph":"web","algo":"prnibble","seeds":[0,16,32]}'
//	curl -s localhost:8080/v1/ncp -d '{"graph":"web","seeds":50,"envelope":true}'
//	curl -s localhost:8080/v1/graphs
//	curl -s localhost:8080/v1/stats
//
// Endpoints: POST /v1/cluster, POST /v1/ncp, POST /v1/graphs/{name}/edges,
// GET /v1/graphs, GET /v1/stats, GET /v1/trace, GET /v1/trace/{id},
// GET /metrics (Prometheus text exposition), GET /healthz, GET /debug/vars
// (expvar).
//
// Graphs are live: POST /v1/graphs/{name}/edges applies an atomic batch of
// edge inserts/deletes (optionally growing the vertex universe) and advances
// the graph's epoch. Queries pin the epoch current at admission and run
// against that immutable snapshot to completion; a background compactor
// folds accumulated deltas into fresh base CSRs every -compact-interval, or
// as soon as a graph's pending-delta count crosses -max-delta-edges.
//
// Durability: with -wal-dir set, every graph gets a per-graph write-ahead
// log under that directory — each accepted ingest batch is committed (and,
// under the default -wal-fsync always, fsynced) before its epoch becomes
// visible, a restart with the same -wal-dir replays the log to the exact
// pre-crash epoch, and each background compaction persists a checkpoint
// that truncates the replayed prefix. -wal-fsync accepts "always", "never",
// or a flush interval ("100ms").
//
// Observability: every response carries X-Request-Id, work requests are
// traced into a bounded ring served at /v1/trace (capacity set by
// -trace-ring), requests slower than -slow-query are logged at Warn
// (-log-requests logs all of them), and -pprof-addr starts a separate
// net/http/pprof listener kept off the service port.
//
// Diffusions pick their frontier representation per iteration via Ligra's
// direction heuristic ("auto"); a request can pin "sparse" or "dense" with
// params.frontier, and GET /v1/stats reports how many diffusions ran under
// each mode. Results are identical in every mode.
//
// Scheduling: every request passes through the class/deadline scheduler
// (internal/sched). -class-weights sets the per-class grant weights,
// -default-deadline the deadline applied to requests that carry none,
// -max-queue the per-class admission bound (excess requests get 429 +
// Retry-After). On SIGTERM/SIGINT the server drains gracefully: admission
// stops (new requests get 503, /healthz flips to draining), in-flight
// queries and streams finish up to -drain-timeout, then the listener shuts
// down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parcluster/internal/graph"
	"parcluster/internal/sched"
	"parcluster/internal/service"
	"parcluster/internal/wal"
)

// serveConfig carries the parsed flag set into run.
type serveConfig struct {
	addr            string
	procs           int
	maxQProcs       int
	cacheSize       int
	batchLanes      int
	dynamic         bool
	preload         string
	classWeights    string
	defaultDeadline time.Duration
	maxQueue        int
	drainTimeout    time.Duration
	compactInterval time.Duration
	maxDeltaEdges   int
	walDir          string
	walFsync        string
	slowQuery       time.Duration
	pprofAddr       string
	traceRing       int
	logRequests     bool
	graphFormat     string
	graphs, gens    []string
}

func main() {
	var cfg serveConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.procs, "procs", 0, "total worker budget shared by all queries (0 = all cores)")
	flag.IntVar(&cfg.maxQProcs, "max-query-procs", 0, "per-query worker clamp (0 = the full budget)")
	flag.IntVar(&cfg.cacheSize, "cache", 1024, "result cache capacity in entries (negative = disable)")
	flag.IntVar(&cfg.batchLanes, "batch-lanes", 0, "coalesce up to this many same-params diffusions into one bit-parallel traversal (0 or 1 = off, max 64)")
	flag.BoolVar(&cfg.dynamic, "dynamic", true, "allow generator specs as graph names in queries (capped at 64 distinct specs)")
	flag.StringVar(&cfg.preload, "preload", "", "comma-separated graph names to load before serving")
	flag.StringVar(&cfg.classWeights, "class-weights", "", "scheduler class weights as interactive=16,batch=4,background=1 (partial overrides allowed)")
	flag.DurationVar(&cfg.defaultDeadline, "default-deadline", 0, "deadline applied to requests without deadline_ms (0 = none)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "per-class admitted-request bound before 429s (0 = 256, negative = unbounded)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight work after SIGTERM")
	flag.DurationVar(&cfg.compactInterval, "compact-interval", 0, "how often the background compactor folds ingested deltas into base CSRs (0 = 30s, negative = disable)")
	flag.IntVar(&cfg.maxDeltaEdges, "max-delta-edges", 0, "pending-delta count that kicks an early compaction (0 = 65536, negative = timer-only)")
	flag.StringVar(&cfg.walDir, "wal-dir", "", "root directory for per-graph ingest write-ahead logs (empty = durability off)")
	flag.StringVar(&cfg.walFsync, "wal-fsync", "always", "WAL fsync policy: always, never, or a flush interval like 100ms")
	flag.DurationVar(&cfg.slowQuery, "slow-query", time.Second, "log requests at Warn when they take at least this long (0 = never)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	flag.IntVar(&cfg.traceRing, "trace-ring", 0, "finished-trace ring capacity behind /v1/trace (0 = 256, negative = disable tracing)")
	flag.BoolVar(&cfg.logRequests, "log-requests", false, "log every request, not just slow and failed ones")
	var graphs, gens multiFlag
	flag.StringVar(&cfg.graphFormat, "graph-format", "", "on-disk format of -graph files: auto, adj, bin, edges, lgz (default: from extension)")
	flag.Var(&graphs, "graph", "register a graph file as name=path (repeatable)")
	flag.Var(&gens, "gen", "register a generator spec as name=spec (repeatable)")
	flag.Parse()
	cfg.graphs, cfg.gens = graphs, gens

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lgc-serve:", err)
		os.Exit(1)
	}
}

// multiFlag collects repeated name=value flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// parseClassWeights parses "interactive=16,batch=4,background=1" (any
// subset; omitted classes keep their defaults, returned as 0).
func parseClassWeights(s string) ([sched.NumClasses]int, error) {
	var w [sched.NumClasses]int
	if s == "" {
		return w, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return w, fmt.Errorf("%q: want class=weight", part)
		}
		cls, err := sched.ParseClass(strings.TrimSpace(name))
		if err != nil || strings.TrimSpace(name) == "" {
			return w, fmt.Errorf("%q: unknown class (want interactive, batch or background)", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 1 {
			return w, fmt.Errorf("%q: weight must be a positive integer", part)
		}
		w[cls] = n
	}
	return w, nil
}

func run(cfg serveConfig) error {
	addr, procs, maxQProcs, cacheSize := cfg.addr, cfg.procs, cfg.maxQProcs, cfg.cacheSize
	dynamic, preload, graphs, gens := cfg.dynamic, cfg.preload, cfg.graphs, cfg.gens
	weights, err := parseClassWeights(cfg.classWeights)
	if err != nil {
		return fmt.Errorf("-class-weights: %w", err)
	}
	reg := service.NewRegistry(procs, dynamic)
	if cfg.walDir != "" {
		policy, interval, err := wal.ParseSyncPolicy(cfg.walFsync)
		if err != nil {
			return fmt.Errorf("-wal-fsync: %w", err)
		}
		if err := reg.EnableWAL(service.WALConfig{
			Dir:      cfg.walDir,
			Policy:   policy,
			Interval: interval,
		}); err != nil {
			return fmt.Errorf("-wal-dir: %w", err)
		}
		// Flush and close the logs after the engine (deferred below, so it
		// runs first) has stopped the compactor and drained appliers.
		defer func() {
			if err := reg.Close(); err != nil {
				log.Printf("closing WALs: %v", err)
			}
		}()
	}
	for _, spec := range graphs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-graph %q: want name=path", spec)
		}
		reg.RegisterFileFormat(name, path, cfg.graphFormat)
	}
	for _, spec := range gens {
		name, genSpec, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-gen %q: want name=spec", spec)
		}
		if err := reg.RegisterSpec(name, genSpec); err != nil {
			return fmt.Errorf("-gen %q: %w", spec, err)
		}
	}

	eng := service.NewEngine(reg, service.Config{
		ProcBudget:       procs,
		MaxProcsPerQuery: maxQProcs,
		CacheSize:        cacheSize,
		BatchLanes:       cfg.batchLanes,
		ClassWeights:     weights,
		MaxQueue:         cfg.maxQueue,
		DefaultDeadline:  cfg.defaultDeadline,
		TraceRing:        cfg.traceRing,
		CompactInterval:  cfg.compactInterval,
		MaxDeltaEdges:    cfg.maxDeltaEdges,
		OnDeadlineMiss: func(class, graph, stage string) {
			slog.Warn("scheduler deadline miss",
				"class", class, "graph", graph, "stage", stage)
		},
	})

	defer eng.Close() // stop the background compactor on every exit path

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if preload != "" {
		for _, name := range strings.Split(preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			start := time.Now()
			g, err := reg.Get(ctx, name)
			if err != nil {
				return fmt.Errorf("preload %q: %w", name, err)
			}
			log.Printf("preloaded %q: n=%d m=%d format=%s in %v",
				name, g.NumVertices(), g.NumEdges(), graph.Format(g), time.Since(start))
		}
	}

	handler := service.NewServer(eng)
	handler.SlowQuery = cfg.slowQuery
	if cfg.logRequests {
		handler.Logger = slog.Default()
	}
	if cfg.pprofAddr != "" {
		// Profiling stays on its own listener so the service port never
		// exposes pprof and the service mux stays free of debug routes.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, pmux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("lgc-serve listening on %s (%d graphs registered, proc budget %d)",
			addr, len(reg.List()), eng.Stats().ProcBudget)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful drain: stop admitting (new requests 503, healthz flips
		// to draining for the load balancer), let admitted queries and
		// streams finish up to the drain budget, then close the listener.
		log.Printf("draining (budget %s)", cfg.drainTimeout)
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancelDrain()
		if err := handler.Drain(drainCtx); err != nil {
			// Budget exhausted with requests still in flight: hard-close.
			log.Printf("drain timed out with requests still in flight; forcing shutdown")
			srv.Close()
			<-errc
			return fmt.Errorf("shutdown forced after %s drain timeout", cfg.drainTimeout)
		}
		// Every admitted request has finished; closing the listener and its
		// idle connections is immediate.
		log.Printf("drained; shutting down")
		if err := srv.Shutdown(context.Background()); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
