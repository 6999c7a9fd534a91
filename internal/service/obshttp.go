package service

// obshttp.go is the server half of the observability wiring: the
// per-request middleware (request IDs, traces, Server-Timing, structured
// request logs), the Prometheus exposition at GET /metrics, and the trace
// ring endpoints at GET /v1/trace and GET /v1/trace/{id}.

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"parcluster/internal/api"
	"parcluster/internal/obs"
)

// requestIDKey carries the request's ID through the handler context, so
// error paths can tag their log records even when tracing is disabled.
type requestIDKey struct{}

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// tracedEndpoint reports whether a path names one of the work endpoints
// whose requests get a trace. Reads of /v1/trace itself, listings, stats
// and probes stay out of the ring — they would bury the kernel traces the
// ring exists to keep. Ingest batches (POST /v1/graphs/{name}/edges) are
// work too: mutation is rarer than querying, and tracing it answers "which
// batch advanced the epoch".
func tracedEndpoint(path string) bool {
	switch path {
	case "/v1/cluster", "/v1/cluster/stream", "/v1/ncp":
		return true
	}
	return strings.HasPrefix(path, "/v1/graphs/") && strings.HasSuffix(path, "/edges")
}

// obsWriter wraps the ResponseWriter to capture the status code and inject
// the Server-Timing header at the last possible moment — the first
// WriteHeader — so it reflects every span recorded before the response
// committed. Flush passes through (the NDJSON path needs the underlying
// http.Flusher), and Unwrap supports http.NewResponseController.
type obsWriter struct {
	http.ResponseWriter
	tr     *obs.Trace
	status int
}

func (w *obsWriter) WriteHeader(code int) {
	if w.status != 0 {
		return // a handler double-writing keeps the first status
	}
	w.status = code
	if timing := w.tr.ServerTiming(); timing != "" {
		w.Header().Set(api.HeaderServerTiming, timing)
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (w *obsWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.NewResponseController.
func (w *obsWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// outcomeFromStatus maps a response status to the trace outcome label.
func outcomeFromStatus(status int) string {
	switch {
	case status < 400:
		return "ok"
	case status == http.StatusGatewayTimeout:
		return "deadline"
	case status < 500:
		return "client_error"
	default:
		return "error"
	}
}

// slogger returns the server's structured logger, falling back to the
// process default.
func (s *Server) slogger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// logRequest emits the per-request structured log record. With no
// configured Logger only slow requests and server errors are logged (so
// embedders and tests are not spammed); a configured Logger receives every
// request, slow ones at Warn.
func (s *Server) logRequest(r *http.Request, id string, status int, d time.Duration) {
	slow := s.SlowQuery > 0 && d >= s.SlowQuery
	if s.Logger == nil && !slow && status < 500 {
		return
	}
	level := slog.LevelInfo
	if slow || status >= 500 {
		level = slog.LevelWarn
	}
	s.slogger().LogAttrs(r.Context(), level, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.String("request_id", id),
		slog.Duration("duration", d),
		slog.Bool("slow", slow),
	)
}

// handleMetrics serves the Prometheus text exposition: the engine's
// lifetime counters, the latency histograms, and a small set of Go runtime
// gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", api.MetricsContentType)
	pw := obs.NewPromWriter(w)
	writeEngineMetrics(pw, s.eng.Stats())
	s.eng.metrics.reg.Expose(pw)
	writeRuntimeMetrics(pw)
	if err := pw.Flush(); err != nil {
		// Either the client went away mid-scrape or a writer-side format
		// violation; both are log-and-drop (the status is long committed).
		s.logf("lgc-serve: metrics exposition: %v", err)
	}
}

// writeEngineMetrics renders an EngineStats snapshot as counter and gauge
// families. Per-class series are emitted in sorted label order (background,
// batch, interactive), as the exposition lint demands.
func writeEngineMetrics(pw *obs.PromWriter, st EngineStats) {
	pw.Counter("lgc_queries_total", "Requests accepted for processing.", float64(st.Queries))
	pw.Counter("lgc_errors_total", "Requests that terminated with an error.", float64(st.Errors))
	pw.Counter("lgc_cache_hits_total", "Result-cache hits (including flight followers).", float64(st.CacheHits))
	pw.Counter("lgc_cache_misses_total", "Result-cache misses.", float64(st.CacheMisses))
	pw.Counter("lgc_diffusions_total", "Diffusion kernels executed.", float64(st.Diffusions))
	pw.Counter("lgc_graph_loads_total", "Graphs loaded by the registry.", float64(st.GraphLoads))
	pw.Counter("lgc_batch_groups_total", "Bit-parallel lane groups executed by the batching planner.", float64(st.Batch.Groups))
	pw.Counter("lgc_batch_lanes_filled_total", "Diffusions answered through shared-traversal lanes.", float64(st.Batch.LanesFilled))
	pw.Counter("lgc_batch_traversals_saved_total", "Edge traversals avoided by lane sharing (lanes minus groups).", float64(st.Batch.TraversalsSaved))
	pw.Counter("lgc_wal_appends_total", "Ingest batches committed to the write-ahead log.", float64(st.Wal.Appends))
	pw.Counter("lgc_wal_bytes_total", "Framed bytes appended to the write-ahead log.", float64(st.Wal.Bytes))
	pw.Counter("lgc_wal_fsyncs_total", "Explicit fsyncs issued by the write-ahead log.", float64(st.Wal.Fsyncs))
	pw.Counter("lgc_wal_replayed_batches_total", "Batches re-applied from the write-ahead log at load time.", float64(st.Wal.ReplayedBatches))
	pw.Counter("lgc_wal_checkpoints_total", "Compaction checkpoints persisted to the write-ahead log.", float64(st.Wal.Checkpoints))
	pw.Counter("lgc_wal_replay_ms_total", "Wall-clock milliseconds spent scanning and replaying write-ahead logs.", st.Wal.ReplayMS)
	pw.Gauge("lgc_wal_segments", "Write-ahead-log segment files currently on disk.", float64(st.Wal.Segments))
	pw.Gauge("lgc_in_flight", "Requests currently admitted and unfinished.", float64(st.InFlight))
	pw.Gauge("lgc_cache_entries", "Result-cache entries resident.", float64(st.CacheEntries))
	pw.Gauge("lgc_cache_bytes", "Approximate result-cache footprint in bytes.", float64(st.CacheBytes))
	pw.Gauge("lgc_proc_budget", "Scheduler worker-token budget.", float64(st.ProcBudget))
	pw.Gauge("lgc_sched_tokens_available", "Scheduler tokens not currently granted.", float64(st.Sched.Avail))
	pw.Gauge("lgc_sched_service_models", "Per-(graph, algorithm) service-time models tracked by the scheduler.", float64(st.Sched.ServiceModels))

	// Per-graph series (registry.List is name-sorted, as the lint demands).
	for _, gi := range st.Graphs {
		if !gi.Loaded {
			continue
		}
		pw.Gauge("lgc_graph_load_ms", "Milliseconds spent materializing the graph at load time.",
			float64(gi.LoadMS), obs.Label{Name: "graph", Value: gi.Name})
	}
	for _, gi := range st.Graphs {
		if gi.MappedBytes <= 0 {
			continue
		}
		pw.Gauge("lgc_graph_mapped_bytes", "Size of the memory-mapped compressed graph image.",
			float64(gi.MappedBytes), obs.Label{Name: "graph", Value: gi.Name})
	}
	for _, gi := range st.Graphs {
		if gi.MappedBytes <= 0 || gi.ResidentHint < 0 {
			continue
		}
		pw.Gauge("lgc_graph_resident_bytes", "Page-cache-resident bytes of the mapped graph image (mincore hint).",
			float64(gi.ResidentHint), obs.Label{Name: "graph", Value: gi.Name})
	}

	classes := []struct {
		name string
		cs   api.SchedClassStats
	}{
		{"background", st.Sched.Background},
		{"batch", st.Sched.Batch},
		{"interactive", st.Sched.Interactive},
	}
	counter := func(name, help string, value func(api.SchedClassStats) float64) {
		for _, c := range classes {
			pw.Counter(name, help, value(c.cs), obs.Label{Name: "class", Value: c.name})
		}
	}
	counter("lgc_sched_admitted_total", "Requests admitted, by class.",
		func(cs api.SchedClassStats) float64 { return float64(cs.Admitted) })
	counter("lgc_sched_rejected_total", "Requests rejected at the admission bound, by class.",
		func(cs api.SchedClassStats) float64 { return float64(cs.Rejected) })
	counter("lgc_sched_deadline_missed_total", "Deadline misses detected by the scheduler, by class.",
		func(cs api.SchedClassStats) float64 { return float64(cs.DeadlineMissed) })
	counter("lgc_sched_completed_total", "Work units completed, by class.",
		func(cs api.SchedClassStats) float64 { return float64(cs.Completed) })
	for _, c := range classes {
		pw.Gauge("lgc_sched_queue_depth", "Units queued for tokens, by class.",
			float64(c.cs.QueueDepth), obs.Label{Name: "class", Value: c.name})
	}
}

// writeRuntimeMetrics renders the Go runtime gauges the exposition carries
// alongside the service families.
func writeRuntimeMetrics(pw *obs.PromWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pw.Gauge("go_goroutines", "Number of goroutines that currently exist.", float64(runtime.NumGoroutine()))
	pw.Gauge("go_memstats_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.Alloc))
	pw.Counter("go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects.", float64(ms.TotalAlloc))
	pw.Gauge("go_memstats_sys_bytes", "Bytes of memory obtained from the OS.", float64(ms.Sys))
	pw.Gauge("go_memstats_heap_objects", "Number of allocated heap objects.", float64(ms.HeapObjects))
	pw.Counter("go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	pw.Gauge("go_sched_gomaxprocs", "Value of GOMAXPROCS.", float64(runtime.GOMAXPROCS(0)))
}

// handleTraceList serves GET /v1/trace: summaries of the most recently
// finished traces, newest first. ?limit=N bounds the listing (default 50).
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	limit := 50
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			s.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "limit must be a positive integer"})
			return
		}
		limit = n
	}
	traces := s.eng.tracer.Recent(limit)
	if traces == nil {
		traces = []obs.TraceSummary{} // an empty JSON array, not null
	}
	s.writeJSON(w, http.StatusOK, struct {
		Traces []obs.TraceSummary `json:"traces"`
	}{Traces: traces})
}

// handleTraceGet serves GET /v1/trace/{id}: the full snapshot — spans and
// per-round kernel events — of one finished trace.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.Contains(id, "/") {
		s.writeJSON(w, http.StatusNotFound, api.ErrorResponse{Error: "trace id must be a single path element"})
		return
	}
	snap, ok := s.eng.tracer.Get(id)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, api.ErrorResponse{Error: "no trace with id " + id + " (evicted, unfinished, or never taken)"})
		return
	}
	s.writeJSON(w, http.StatusOK, snap)
}
