package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parcluster/internal/api"
	"parcluster/internal/obs"
	"parcluster/internal/sched"
)

// maxBodyBytes bounds request bodies; a cluster request is a few KB even
// with thousands of seeds, so 8 MiB is generous.
const maxBodyBytes = 8 << 20

// Server is the HTTP/JSON front end over an Engine. It serves
//
//	POST /v1/cluster         — ClusterRequest -> ClusterResponse (or NDJSON
//	                           with Accept: application/x-ndjson)
//	POST /v1/cluster/stream  — ClusterRequest -> NDJSON, one record per
//	                           completed unit
//	POST /v1/ncp             — NCPRequest -> NCPResponse
//	GET  /v1/graphs          — registry listing
//	POST /v1/graphs/{name}/edges — IngestRequest -> IngestResponse: apply
//	                           one atomic batch of live edge mutations
//	GET  /v1/stats           — EngineStats
//	GET  /v1/trace           — recent request-trace summaries
//	GET  /v1/trace/{id}      — one trace: spans + per-round kernel events
//	GET  /metrics            — Prometheus text exposition (histograms,
//	                           counters, Go runtime gauges)
//	GET  /healthz            — liveness probe (503 while draining)
//	GET  /debug/vars         — expvar (aggregated over all engines in-process)
//
// Every response carries an X-Request-Id header (echoing the client's, or
// generated), and traced work endpoints add Server-Timing with the
// request's span durations; the same ID keys the request's trace at
// /v1/trace/{id}. See obshttp.go for the middleware and handlers.
//
// Errors come back as {"error": "..."} with 400 for invalid requests, 404
// for unknown graphs, 405 for wrong methods, 429 + Retry-After when a
// class's admission bound is hit, 503 while draining, and 504 for missed
// deadlines. Build one with NewServer and mount it as an http.Handler.
//
// Every body is encoded with encoding/json. Cluster and NCP answers are
// marshalled whole before the header goes out, so their Server-Timing
// carries the "encode" span; the NDJSON paths encode and flush one record
// per completed unit. A result owns its memory by the time it leaves the
// engine, so no handler has anything to release.
type Server struct {
	eng     *Engine
	mux     *http.ServeMux
	started time.Time
	// Logf receives one line per failed request (nil = log.Printf).
	Logf func(format string, args ...any)
	// Logger receives the structured per-request records (see
	// obshttp.go's logRequest; nil = only slow and failed requests, via
	// slog.Default).
	Logger *slog.Logger
	// SlowQuery is the duration at or above which a request is logged at
	// Warn with slow=true (0 = never).
	SlowQuery time.Duration
}

// NewServer wraps eng in an HTTP handler and registers it with the
// process-wide expvar export.
func NewServer(eng *Engine) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("/v1/cluster", s.handleCluster)
	s.mux.HandleFunc("/v1/cluster/stream", s.handleClusterStream)
	s.mux.HandleFunc("/v1/ncp", s.handleNCP)
	s.mux.HandleFunc("/v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("/v1/graphs/", s.handleGraphSub)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/trace", s.handleTraceList)
	s.mux.HandleFunc("/v1/trace/", s.handleTraceGet)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/vars", s.handleDebugVars)
	publishExpvar(eng)
	return s
}

// ServeHTTP is the per-request middleware in front of the mux: it assigns
// the request ID, starts a trace for the work endpoints, injects the
// X-Request-Id and Server-Timing headers, and emits the structured request
// log on the way out.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.Header.Get(api.HeaderRequestID)
	if id == "" {
		id = obs.NewID()
	}
	w.Header().Set(api.HeaderRequestID, id)
	ctx := withRequestID(r.Context(), id)
	var tr *obs.Trace
	if tracedEndpoint(r.URL.Path) {
		tr = s.eng.tracer.Start(r.Method+" "+r.URL.Path, id)
		ctx = obs.NewContext(ctx, tr)
	}
	r = r.WithContext(ctx)
	ow := &obsWriter{ResponseWriter: w, tr: tr}
	s.mux.ServeHTTP(ow, r)
	status := ow.status
	if status == 0 {
		status = http.StatusOK // nothing written: net/http will send 200
	}
	tr.Finish(outcomeFromStatus(status))
	s.logRequest(r, id, status, time.Since(start))
}

// Close detaches the server's engine from the process-wide expvar export.
// A long-lived daemon never needs it; embedders that build and discard
// servers (per tenant, per config reload) must call it, or the global
// export pins the engine — and with it the registry's loaded graphs —
// for the life of the process.
func (s *Server) Close() {
	expMu.Lock()
	defer expMu.Unlock()
	for i, e := range expEngines {
		if e == s.eng {
			expEngines = append(expEngines[:i], expEngines[i+1:]...)
			expSnap.Store(nil) // the cached sum includes the removed engine
			return
		}
	}
}

// expvar's registry is process-global and panics on duplicate names, so
// all engines (tests build several) share one "lgc" Func that reports a
// summed snapshot. The summation runs outside every lock — each
// Engine.Stats takes that engine's own mutexes, and the old scheme of
// walking all engines while holding expMu let one slow scrape stall both
// concurrent scrapes and server construction. Rebuilds reuse one scratch
// slice for the engine-list copy and are cached for expSnapTTL, so a
// scrape storm serves the cached sum instead of re-snapshotting every
// engine per request. Server.Close removes an engine from the export.
var (
	expOnce      sync.Once
	expMu        sync.Mutex // guards expEngines
	expEngines   []*Engine
	expRefreshMu sync.Mutex // serializes snapshot rebuilds; owns expScratch
	expScratch   []*Engine
	expSnap      atomic.Pointer[expSnapshot]
)

// expSnapTTL bounds the staleness of the cached expvar aggregate.
const expSnapTTL = time.Second

// expSnapshot is one cached summation of every registered engine's stats.
type expSnapshot struct {
	stats EngineStats
	when  time.Time
}

func publishExpvar(e *Engine) {
	expMu.Lock()
	expEngines = append(expEngines, e)
	expMu.Unlock()
	expSnap.Store(nil) // the engine set changed; drop the cached sum
	expOnce.Do(func() {
		expvar.Publish("lgc", expvar.Func(func() any {
			if snap := expSnap.Load(); snap != nil && time.Since(snap.when) < expSnapTTL {
				return snap.stats
			}
			return refreshExpvar().stats
		}))
	})
}

// refreshExpvar rebuilds the cached aggregate: the engine list is copied
// into the reused scratch slice under expMu, then each engine's stats are
// summed with no lock held. Concurrent scrapes serialize on expRefreshMu
// and all but the first reuse the rebuilt snapshot.
func refreshExpvar() *expSnapshot {
	expRefreshMu.Lock()
	defer expRefreshMu.Unlock()
	if snap := expSnap.Load(); snap != nil && time.Since(snap.when) < expSnapTTL {
		return snap // another scrape rebuilt it while we waited
	}
	expMu.Lock()
	expScratch = append(expScratch[:0], expEngines...)
	expMu.Unlock()
	snap := &expSnapshot{when: time.Now()}
	total := &snap.stats
	var latW float64
	for _, e := range expScratch {
		st := e.Stats()
		total.Queries += st.Queries
		total.Errors += st.Errors
		total.InFlight += st.InFlight
		total.CacheHits += st.CacheHits
		total.CacheMisses += st.CacheMisses
		total.CacheEntries += st.CacheEntries
		total.CacheBytes += st.CacheBytes
		total.Diffusions += st.Diffusions
		total.GraphLoads += st.GraphLoads
		total.ProcBudget += st.ProcBudget
		total.Workspace.Add(st.Workspace)
		total.Sched.Add(st.Sched)
		total.Batch.Add(st.Batch)
		total.Ingest.Add(st.Ingest)
		total.Wal.Add(st.Wal)
		latW += st.AvgLatencyMS * float64(st.Queries-st.Errors)
	}
	if done := total.Queries - total.Errors; done > 0 {
		total.AvgLatencyMS = latW / float64(done)
	}
	clear(expScratch) // drop the engine refs so a closed engine isn't pinned
	expSnap.Store(snap)
	return snap
}

// handleDebugVars refreshes the aggregated "lgc" snapshot (bounded by
// expSnapTTL) and delegates to the standard expvar handler.
func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	refreshExpvar()
	expvar.Handler().ServeHTTP(w, r)
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// decode reads a JSON body into dst, rejecting unknown fields and
// trailing garbage so malformed requests fail loudly instead of running a
// default query.
func decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON body", ErrBadRequest)
	}
	return nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("lgc-serve: encoding response: %v", err)
	}
}

// writeError maps engine and scheduler errors to HTTP statuses.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	var full *sched.QueueFullError
	switch {
	case errors.Is(err, ErrUnknownGraph):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.As(err, &full):
		// Backpressure: the class's admission bound is hit. Tell the client
		// when to come back instead of queueing it without bound.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(full.RetryAfter)))
		status = http.StatusTooManyRequests
	case errors.Is(err, sched.ErrDraining):
		// Shutting down: the client should retry against another replica.
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, sched.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		// A missed deadline means this class is over-committed; log each one
		// with the IDs that find its trace at /v1/trace/{id}.
		s.slogger().LogAttrs(r.Context(), slog.LevelWarn, "deadline miss",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("request_id", requestIDFrom(r.Context())),
			slog.String("trace_id", obs.FromContext(r.Context()).ID()),
			slog.String("error", err.Error()),
		)
	case errors.Is(err, http.ErrHandlerTimeout):
		status = http.StatusServiceUnavailable
	case r.Context().Err() != nil:
		// The client went away; the status is moot but pick one anyway.
		status = http.StatusServiceUnavailable
	}
	if status == http.StatusInternalServerError {
		s.logf("lgc-serve: %s %s: %v", r.Method, r.URL.Path, err)
	}
	// Strip the sentinel prefix; the status code already carries it.
	msg := strings.TrimPrefix(err.Error(), ErrBadRequest.Error()+": ")
	s.writeJSON(w, status, api.ErrorResponse{Error: msg})
}

// retryAfterSeconds renders a backoff hint as whole seconds >= 1, the
// Retry-After header's delta form.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// requireMethod writes a 405 and returns false when the method mismatches.
func (s *Server) requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		s.writeJSON(w, http.StatusMethodNotAllowed, api.ErrorResponse{Error: "method " + r.Method + " not allowed"})
		return false
	}
	return true
}

// ndjsonContentType is the MIME type of the streaming batch framing.
const ndjsonContentType = "application/x-ndjson"

// wantsNDJSON reports whether the request negotiates the NDJSON framing on
// the buffered endpoint via its Accept header.
func wantsNDJSON(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
			if strings.TrimSpace(mediaType) == ndjsonContentType {
				return true
			}
		}
	}
	return false
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	var req ClusterRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if wantsNDJSON(r) {
		s.streamCluster(w, r, &req)
		return
	}
	resp, err := s.eng.Cluster(r.Context(), &req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeBody(w, r, resp)
}

// writeBody answers a work request with one JSON document. The body is
// marshalled before the header goes out, so the "encode" span reaches
// Server-Timing and a value encoding/json refuses (a non-finite float) is a
// 500 error, not a 200 with a truncated body.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, v any) {
	encStart := time.Now()
	body, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	obs.FromContext(r.Context()).Span("encode", encStart)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(append(body, '\n')); err != nil {
		// Almost always the client going away mid-body; the status is sent,
		// so all we can do is log and drop the connection.
		s.logf("lgc-serve: writing %s response: %v", r.URL.Path, err)
	}
}

func (s *Server) handleClusterStream(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	var req ClusterRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	s.streamCluster(w, r, &req)
}

// streamCluster answers a ClusterRequest with the NDJSON framing: a header
// record, one result record per unit flushed as it completes, and a
// terminal aggregate or error record. Errors before the header —
// validation, admission, graph resolution — still come back as plain JSON
// error bodies with real status codes; once the header is on the wire,
// failures become the stream's terminal error record.
func (s *Server) streamCluster(w http.ResponseWriter, r *http.Request, req *ClusterRequest) {
	st, err := s.eng.StreamCluster(r.Context(), req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	// Close runs on every exit: it cancels outstanding work and returns the
	// admission slot — a client that disconnects mid-stream leaks nothing.
	defer st.Close()
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	if err := api.WriteClusterStreamHeader(w, st.Graph, st.Vertices, st.Edges, st.Epoch, st.Algo, st.Units); err != nil {
		s.logf("lgc-serve: ndjson header: %v", err)
		return
	}
	flush()
	for {
		_, res, ok := st.Next()
		if !ok {
			break
		}
		lineStart := time.Now()
		if err := api.WriteClusterResultLine(w, res); err != nil {
			// Client gone mid-stream; nothing more to say to it.
			s.logf("lgc-serve: ndjson result line: %v", err)
			return
		}
		flush()
		// One observation per delivered line: the client-facing encode+flush,
		// not the kernel behind it.
		s.eng.metrics.flushDur.With().Observe(time.Since(lineStart))
	}
	if err := st.Err(); err != nil {
		// The batch died after the header: end the stream with a terminal
		// error record instead of silent truncation.
		msg := strings.TrimPrefix(err.Error(), ErrBadRequest.Error()+": ")
		if err := api.WriteStreamError(w, msg); err != nil {
			s.logf("lgc-serve: ndjson error record: %v", err)
		}
		return
	}
	agg := st.Aggregate()
	if err := api.WriteClusterStreamTrailer(w, &agg); err != nil {
		s.logf("lgc-serve: ndjson trailer: %v", err)
	}
}

func (s *Server) handleNCP(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	var req NCPRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	resp, err := s.eng.NCP(r.Context(), &req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeBody(w, r, resp)
}

// handleGraphSub routes the per-graph subtree: /v1/graphs/{name}/edges is
// the ingest endpoint; anything else under the prefix is a 404. Graph names
// cannot contain '/' (registry names are flat), so the first segment is the
// whole name.
func (s *Server) handleGraphSub(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/graphs/")
	name, op, ok := strings.Cut(rest, "/")
	if !ok || name == "" || op != "edges" {
		s.writeJSON(w, http.StatusNotFound, api.ErrorResponse{Error: "unknown path " + r.URL.Path})
		return
	}
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	var req api.IngestRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	resp, err := s.eng.Ingest(r.Context(), name, &req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		Graphs []GraphInfo `json:"graphs"`
	}{Graphs: s.eng.Registry().List()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, http.StatusOK, s.eng.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	status, code := "ok", http.StatusOK
	if s.eng.Draining() {
		// Tell load balancers to stop routing here while in-flight work
		// finishes.
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}{Status: status, Uptime: time.Since(s.started).Seconds()})
}

// Drain gracefully quiesces the server: admission stops (new requests get
// 503 + Retry-After, healthz flips to draining), and the call blocks until
// every admitted request has finished — streams included and ingest
// batches too, since applies hold scheduler tickets — or ctx expires,
// returning ctx's error in the latter case. On success every write-ahead
// log is fsynced, so a drained server holds zero un-fsynced WAL records
// under any fsync policy. The caller then shuts the listener down
// (http.Server.Shutdown) knowing request handlers are idle.
func (s *Server) Drain(ctx context.Context) error {
	s.eng.BeginDrain()
	select {
	case <-s.eng.Drained():
		return s.eng.SyncWAL()
	case <-ctx.Done():
		return ctx.Err()
	}
}
