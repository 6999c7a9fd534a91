package main

import (
	"errors"
	"net/http"
	"sync"
	"time"
)

// The traced pass of a serve-* workload. Nothing inside lgc-serve is
// touched: spans are what the server already publishes — the Server-Timing
// header of every answer, GET /v1/trace/{id} for the spans recorded after
// the header went out (encode, and everything of a streamed request) — and
// counts are deltas of GET /v1/stats and GET /metrics over the phase.

// serverSpans is the order the server records its request spans in.
var serverSpans = []string{"admission", "graph_load", "queue_wait", "kernel", "sweep"}

// traceCollector gathers the spans of the interactive requests of a traced
// phase and the IDs to ask /v1/trace about afterwards.
type traceCollector struct {
	mu         sync.Mutex
	rec        *recorder
	spanMS     map[string][]float64 // per server span name, one value per request
	latencyMS  []float64
	overheadMS []float64 // client latency minus the server's spans
	bytes      []float64
	ids        []string       // X-Request-Id, oldest first
	roots      map[string]int // request ID to its root span
	streamIDs  []string
	encodeUS   []float64
	batchQueue []float64 // queue_wait of each unit of the sampled batch requests, ms
}

func newTraceCollector() *traceCollector {
	return &traceCollector{rec: newRecorder(), spanMS: make(map[string][]float64), roots: make(map[string]int)}
}

// observe turns one answer's headers into spans. The header carries
// durations only, so the children are laid end to end from the request's
// start; their order is the server's, their offsets are not measured.
func (t *traceCollector) observe(r reply) error {
	timing, err := parseServerTiming(r.header.Get("Server-Timing"))
	if err != nil {
		return err
	}
	id := r.header.Get("X-Request-Id")
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.rec.add(0, "request", id, r.start, r.latency)
	at, sum := r.start, 0.0
	for _, name := range serverSpans {
		ms, ok := timing[name]
		if !ok {
			continue
		}
		d := time.Duration(ms * float64(time.Millisecond))
		t.rec.add(root, "service."+name, id, at, d)
		at = at.Add(d)
		sum += ms
		t.spanMS[name] = append(t.spanMS[name], ms)
	}
	lat := float64(r.latency) / 1e6
	t.latencyMS = append(t.latencyMS, lat)
	t.overheadMS = append(t.overheadMS, lat-sum)
	t.bytes = append(t.bytes, float64(r.bytes))
	t.ids = append(t.ids, id)
	t.roots[id] = root
	return nil
}

func (t *traceCollector) observeStream(sr streamReply) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.streamIDs = append(t.streamIDs, sr.header.Get("X-Request-Id"))
}

// finish asks the server's trace ring for the most recent requests: the
// encode span of single answers, the queue waits of streamed batches. The
// ring holds 256 traces, so older IDs are gone; that is expected.
func (t *traceCollector) finish(srv *server, c *http.Client) error {
	const sample = 200
	ids := t.ids
	if len(ids) > sample {
		ids = ids[len(ids)-sample:]
	}
	for _, id := range ids {
		tr, err := srv.trace(c, id)
		if errors.Is(err, errTraceEvicted) {
			continue
		}
		if err != nil {
			return err
		}
		for _, sp := range tr.Spans {
			if sp.Name != "encode" {
				continue
			}
			t.encodeUS = append(t.encodeUS, float64(sp.DurationUS))
			if root := t.roots[id]; root != 0 { // 0: the recorder was full
				start := t.rec.t0.Add(time.Duration(t.rec.spans[root-1].StartUS+sp.StartUS) * time.Microsecond)
				t.rec.add(root, "api.encode", id, start, time.Duration(sp.DurationUS)*time.Microsecond)
			}
		}
	}
	streams := t.streamIDs
	if len(streams) > 8 {
		streams = streams[len(streams)-8:]
	}
	for _, id := range streams {
		tr, err := srv.trace(c, id)
		if errors.Is(err, errTraceEvicted) {
			continue
		}
		if err != nil {
			return err
		}
		for _, sp := range tr.Spans {
			if sp.Name == "queue_wait" {
				t.batchQueue = append(t.batchQueue, float64(sp.DurationUS)/1e3)
			}
		}
	}
	return nil
}

// merge joins a later slice of the same client mix into p.
func (p *phase) merge(o phase) {
	p.window += o.window
	p.op.merge(o.op)
	p.side.merge(o.side)
	p.first = append(p.first, o.first...)
	p.late = append(p.late, o.late...)
	p.seeds += o.seeds
}

// traced alternates untraced and traced slices of the client mix (three of
// each, a sixth of --seconds long, in the order UT TU UT, so that a cache
// that is still warming does not count for or against tracing) and derives
// the per-layer values of the server's packages. Shares and per-query values are deltas of
// the server's counters from the first slice to the last.
func (s *serveRun) traced(run mix, after afterFunc) (values, *traceFile, outcome, error) {
	const rounds = 3
	slice := s.e.seconds / (2 * rounds)
	c := newClient()
	st0, err := s.srv.stats(c)
	if err != nil {
		return nil, nil, s.out, err
	}
	m0, err := s.srv.scrape(c)
	if err != nil {
		return nil, nil, s.out, err
	}
	tc := newTraceCollector()
	var plain, traced phase
	for i := 0; i < 2*rounds; i++ {
		if i%4 == 0 || i%4 == 3 {
			plain.merge(s.timed(run, slice))
			continue
		}
		s.tc = tc
		traced.merge(s.timed(run, slice))
		s.tc = nil
	}
	s.out.absorb("untraced op", plain.op)
	s.out.absorb("untraced side", plain.side)
	s.out.absorb("traced op", traced.op)
	s.out.absorb("traced side", traced.side)
	st1, err := s.srv.stats(c)
	if err != nil {
		return nil, nil, s.out, err
	}
	m1, err := s.srv.scrape(c)
	if err != nil {
		return nil, nil, s.out, err
	}
	if err := tc.finish(s.srv, c); err != nil {
		return nil, nil, s.out, err
	}

	delta := func(name string) float64 { return m1[name] - m0[name] }
	ws0, ws1 := st0.Workspace, st1.Workspace
	recycled := (ws1.BytesRecycled - ws0.BytesRecycled) + (ws1.ResultBytesRecycled - ws0.ResultBytesRecycled) +
		(ws1.BatchBytesRecycled - ws0.BatchBytesRecycled)
	acquires := (ws1.Acquires - ws0.Acquires) + (ws1.ResultAcquires - ws0.ResultAcquires) + (ws1.BatchAcquires - ws0.BatchAcquires)
	hits := (ws1.Hits - ws0.Hits) + (ws1.ResultHits - ws0.ResultHits) + (ws1.BatchHits - ws0.BatchHits)
	cacheLookups := (st1.CacheHits - st0.CacheHits) + (st1.CacheMisses - st0.CacheMisses)
	sc := st1.Sched
	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	qpsPlain := float64(len(plain.op.latencies)) / plain.window.Seconds()
	qpsTraced := float64(len(traced.op.latencies)) / traced.window.Seconds()
	op := summarize(ms(plain.op.latencies), 99)
	side := summarize(ms(plain.side.latencies), 99)

	layer := values{
		"workspace.hit_share":                 ratio(float64(hits), float64(acquires)),
		"workspace.bytes_recycled_per_query":  ratio(float64(recycled), float64(st1.Queries-st0.Queries)),
		"api.encode_us":                       median(tc.encodeUS),
		"api.response_bytes":                  median(tc.bytes),
		"sched.queue_wait_ms.interactive.p50": median(tc.spanMS["queue_wait"]),
		"sched.queue_wait_ms.interactive.p99": summarize(tc.spanMS["queue_wait"], 99).tail,
		"sched.queue_wait_ms.batch.p50":       median(tc.batchQueue),
		"sched.rejected":                      float64(sc.Interactive.Rejected + sc.Batch.Rejected + sc.Background.Rejected),
		"sched.deadline_missed":               float64(sc.Interactive.DeadlineMissed + sc.Batch.DeadlineMissed + sc.Background.DeadlineMissed),
		// Medians over the requests that have the span: an answer from the
		// cache has no kernel and no sweep.
		"service.admission_us":     median(tc.spanMS["admission"]) * 1e3,
		"service.graph_load_us":    median(tc.spanMS["graph_load"]) * 1e3,
		"service.kernel_ms":        median(tc.spanMS["kernel"]),
		"service.sweep_ms":         median(tc.spanMS["sweep"]),
		"service.http_overhead_ms": median(tc.overheadMS),
		// Of all the time the traced clients waited, the share inside named
		// server spans; the rest is service.http_overhead_ms.
		"service.attributed_share":          1 - ratio(sum(tc.overheadMS), sum(tc.latencyMS)),
		"service.latency_ms.p99":            op.tail,
		"service.cache_hit_share":           ratio(float64(st1.CacheHits-st0.CacheHits), float64(cacheLookups)),
		"service.cold_start_ms":             s.srv.coldStart.Seconds() * 1e3,
		"service.batch.lanes_filled_share":  ratio(float64(st1.Batch.LanesFilled-st0.Batch.LanesFilled), float64(batchSeeds*(st1.Batch.Groups-st0.Batch.Groups))),
		"service.batch.seeds_per_s":         float64(plain.seeds) / plain.window.Seconds(),
		"service.batch.first_result_ms.p50": median(ms(plain.first)),
		"service.compactions":               float64(st1.Ingest.Compactions),
		"wal.fsyncs_per_batch":              ratio(delta("lgc_wal_fsyncs_total"), delta("lgc_wal_appends_total")),
		"wal.bytes_per_edge": ratio(delta("lgc_wal_bytes_total"),
			float64((st1.Ingest.Edges-st0.Ingest.Edges)+(st1.Ingest.Deletes-st0.Ingest.Deletes))),
		"obs.trace_overhead_pct": 100 * ratio(qpsPlain-qpsTraced, qpsPlain),
		"load.late_ms.p99":       summarize(ms(plain.late), 99).tail,
	}
	if s.wal {
		layer["service.ingest_ms.p99"] = side.tail
	}
	_, more, err := after(plain)
	if err != nil {
		return nil, nil, s.out, err
	}
	for k, v := range more {
		layer[k] = v
	}
	return layer, &traceFile{Spans: tc.rec.spans, Dropped: tc.rec.dropped}, s.out, nil
}
