package service

// obs_test.go covers the observability surface end to end over a real
// engine: the /metrics exposition (lint-clean, histograms present per
// algo/class), the /v1/trace ring endpoints (spans + per-round kernel
// events), and the request-ID / Server-Timing headers.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parcluster/internal/api"
	"parcluster/internal/obs"
)

func TestMetricsEndpoint(t *testing.T) {
	ts, eng := newTestServer(t)
	// Generate some traffic first so the histograms have observations.
	resp, body := postJSON(t, ts.URL+"/v1/cluster",
		`{"graph":"test","algo":"prnibble","seeds":[0,12,24]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status = %d, body = %s", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != api.MetricsContentType {
		t.Fatalf("metrics content-type = %q", ct)
	}
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintExposition(bytes.NewReader(text)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"lgc_queries_total 1",
		"lgc_sched_admitted_total{class=\"interactive\"}",
		`lgc_request_duration_seconds_count{algo="prnibble",class="interactive",outcome="ok"} 1`,
		`lgc_kernel_seconds_count{algo="prnibble"} 3`, // one per seed
		`lgc_queue_wait_seconds_count{class="interactive"} 3`,
		"go_goroutines",
		"go_gc_cycles_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}

	// The exported registry is the one behind the endpoint.
	if eng.Metrics() == nil {
		t.Fatal("Engine.Metrics() = nil")
	}
	if got := http.StatusMethodNotAllowed; func() int {
		r, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		return r.StatusCode
	}() != got {
		t.Fatalf("POST /metrics not rejected with %d", got)
	}
}

func TestTraceEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/cluster",
		`{"graph":"test","algo":"prnibble","seeds":[0,12]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status = %d, body = %s", resp.StatusCode, body)
	}
	id := resp.Header.Get(api.HeaderRequestID)
	if len(id) != 16 {
		t.Fatalf("X-Request-Id = %q, want a generated 16-char id", id)
	}
	timing := resp.Header.Get(api.HeaderServerTiming)
	for _, span := range []string{"admission", "graph_load", "queue_wait", "kernel", "sweep"} {
		if !strings.Contains(timing, span+";dur=") {
			t.Errorf("Server-Timing missing %s: %q", span, timing)
		}
	}

	tresp, err := http.Get(ts.URL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", tresp.StatusCode)
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(tresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != id || snap.Endpoint != "POST /v1/cluster" {
		t.Fatalf("snapshot identity = %+v", snap)
	}
	if snap.Graph != "test" || snap.Algo != "prnibble" || snap.Class != "interactive" || snap.Outcome != "ok" {
		t.Fatalf("snapshot annotations = %+v", snap)
	}
	if len(snap.KernelRounds) == 0 {
		t.Fatal("trace has no per-round kernel events")
	}
	units := map[int]bool{}
	for _, kr := range snap.KernelRounds {
		units[kr.Unit] = true
		if kr.Frontier <= 0 || kr.Edges < 0 {
			t.Fatalf("kernel round = %+v", kr)
		}
	}
	if !units[0] || !units[1] {
		t.Fatalf("kernel rounds cover units %v, want both units", units)
	}

	// The listing shows the trace, newest first.
	lresp, err := http.Get(ts.URL + "/v1/trace?limit=5")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) == 0 || listing.Traces[0].ID != id {
		t.Fatalf("listing = %+v, want %s first", listing.Traces, id)
	}
	if listing.Traces[0].Rounds != len(snap.KernelRounds) {
		t.Fatalf("summary rounds = %d, snapshot = %d", listing.Traces[0].Rounds, len(snap.KernelRounds))
	}

	for path, status := range map[string]int{
		"/v1/trace/unknown-id": http.StatusNotFound,
		"/v1/trace/a/b":        http.StatusNotFound,
		"/v1/trace?limit=0":    http.StatusBadRequest,
	} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != status {
			t.Errorf("GET %s = %d, want %d", path, r.StatusCode, status)
		}
	}
}

func TestRequestIDEchoed(t *testing.T) {
	ts, _ := newTestServer(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/cluster",
		strings.NewReader(`{"graph":"test","seeds":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.HeaderRequestID, "my-test-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(api.HeaderRequestID); got != "my-test-id-42" {
		t.Fatalf("X-Request-Id = %q, want the client's id echoed", got)
	}
	// The trace is keyed by the client's id.
	r, err := http.Get(ts.URL + "/v1/trace/my-test-id-42")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace by client id = %d", r.StatusCode)
	}
}

func TestUntracedEndpointsStayOutOfRing(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 3; i++ {
		r, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.Header.Get(api.HeaderRequestID) == "" {
			t.Fatal("untraced endpoint lost its request id")
		}
	}
	lresp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) != 0 {
		t.Fatalf("stats reads landed in the trace ring: %+v", listing.Traces)
	}
}

func TestTracingDisabled(t *testing.T) {
	reg := NewRegistry(2, false)
	if err := reg.RegisterSpec("test", "caveman:cliques=16,k=12"); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(reg, Config{ProcBudget: 4, CacheSize: 64, TraceRing: -1})
	srv := NewServer(eng)
	srv.Logf = t.Logf
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	resp, body := postJSON(t, ts.URL+"/v1/cluster", `{"graph":"test","seeds":[0]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status = %d, body = %s", resp.StatusCode, body)
	}
	id := resp.Header.Get(api.HeaderRequestID)
	if id == "" {
		t.Fatal("disabled tracing dropped the request id")
	}
	r, err := http.Get(ts.URL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("trace with tracing disabled = %d, want 404", r.StatusCode)
	}
}

func TestStreamFlushHistogram(t *testing.T) {
	ts, eng := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/cluster/stream",
		`{"graph":"test","algo":"prnibble","seeds":[0,12,24]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, body = %s", resp.StatusCode, body)
	}
	if got := eng.metrics.flushDur.With().Count(); got != 3 {
		t.Fatalf("flush observations = %d, want one per result line", got)
	}
}

// TestServerTimingCarriesEncode pins that single-document answers are
// encoded before their header goes out: the Server-Timing header of a
// traced POST /v1/cluster and POST /v1/ncp names the "encode" span.
func TestServerTimingCarriesEncode(t *testing.T) {
	ts, _ := newTestServer(t)
	for path, body := range map[string]string{
		"/v1/cluster": `{"graph":"test","seeds":[0,12]}`,
		"/v1/ncp":     `{"graph":"test","seeds":2,"alphas":[0.05],"epsilons":[0.0001],"rng_seed":1}`,
	} {
		resp, got := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d, body = %s", path, resp.StatusCode, got)
		}
		if timing := resp.Header.Get(api.HeaderServerTiming); !strings.Contains(timing, "encode;dur=") {
			t.Errorf("%s: Server-Timing missing encode: %q", path, timing)
		}
	}
}

// TestWriteBodyRefusesNonFinite pins the error contract of the body
// encoder: a value encoding/json refuses (a non-finite float) is answered
// with a 500 JSON error body, never a 200 with a truncated document.
func TestWriteBodyRefusesNonFinite(t *testing.T) {
	s := &Server{Logf: func(string, ...any) {}}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		rec := httptest.NewRecorder()
		s.writeBody(rec, httptest.NewRequest(http.MethodPost, "/v1/ncp", nil), &NCPResponse{ElapsedMS: bad})
		var e api.ErrorResponse
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil ||
			!strings.Contains(e.Error, "unsupported value") {
			t.Fatalf("ElapsedMS %v: status %d, body %q; want a 500 unsupported-value error", bad, rec.Code, rec.Body.Bytes())
		}
	}
}
