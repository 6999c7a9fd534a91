package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parcluster/internal/api"
	"parcluster/internal/graph"
)

// fuzzServer builds one server over a small fixed graph for the fuzz
// targets: two 8-cliques joined by a single bridge edge, so every algorithm
// has a real cluster to find.
func fuzzServer() *Server {
	var edges []graph.Edge
	for c := uint32(0); c < 2; c++ {
		base := c * 8
		for i := uint32(0); i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 8})
	g := graph.FromEdges(1, 0, edges)
	reg := NewRegistry(1, false)
	reg.RegisterGraph("g", g)
	eng := NewEngine(reg, Config{ProcBudget: 2, CacheSize: 64})
	srv := NewServer(eng)
	srv.Logf = func(string, ...any) {} // panics still surface; noise does not
	return srv
}

// fuzzIngestServer builds a server for the ingest fuzz target: the same
// two-clique graph, but with the background compactor disabled so the only
// work a fuzz iteration can trigger is the O(batch) Apply itself.
func fuzzIngestServer() *Server {
	var edges []graph.Edge
	for c := uint32(0); c < 2; c++ {
		base := c * 8
		for i := uint32(0); i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 8})
	reg := NewRegistry(1, false)
	reg.RegisterGraph("g", graph.FromEdges(1, 0, edges))
	eng := NewEngine(reg, Config{ProcBudget: 2, CacheSize: 8, CompactInterval: -1})
	srv := NewServer(eng)
	srv.Logf = func(string, ...any) {}
	return srv
}

// FuzzClusterRequest throws arbitrary bytes at the full /v1/cluster path:
// JSON decoding, parameter validation, dispatch into the diffusion kernels,
// and the response encoding. The handler must never panic, every non-200
// must carry a JSON error body, and every 200 body must round-trip through
// encoding/json back to the exact bytes served.
func FuzzClusterRequest(f *testing.F) {
	f.Add([]byte(`{"graph":"g","seeds":[0]}`))
	f.Add([]byte(`{"graph":"g","algo":"nibble","seeds":[0,8],"params":{"epsilon":1e-7,"t":10}}`))
	f.Add([]byte(`{"graph":"g","algo":"hkpr","seeds":[1,2,3],"seed_set":true,"max_members":2}`))
	f.Add([]byte(`{"graph":"g","algo":"randhk","seeds":[4],"params":{"walks":500,"walk_seed":7}}`))
	f.Add([]byte(`{"graph":"g","algo":"evolving","seeds":[9],"params":{"max_iter":20,"walk_seed":3}}`))
	f.Add([]byte(`{"graph":"nope","seeds":[0]}`))
	f.Add([]byte(`{"graph":"g","seeds":[0],"params":{"alpha":99}}`))
	f.Add([]byte(`{"graph":"g","seeds":[0],"no_cache":true,"procs":-3}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"graph":"g","seeds":[0]} trailing`))
	srv := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req) // must not panic, whatever the body
		requireJSONAnswer(t, rec, body)
	})
}

// requireJSONAnswer checks the handler's reply invariants for any input.
func requireJSONAnswer(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q for body %q", ct, body)
	}
	if rec.Code != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d without a JSON error body: %q (req %q)", rec.Code, rec.Body.Bytes(), body)
		}
		return
	}
	var resp api.ClusterResponse
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("200 body does not decode into ClusterResponse: %v\nbody: %q", err, rec.Body.Bytes())
	}
	// Round-trip: decoding the served body and re-encoding it must reproduce
	// the exact served bytes — the body is canonical encoding/json output,
	// newline included, on every reachable response.
	var stdlib bytes.Buffer
	if err := json.NewEncoder(&stdlib).Encode(&resp); err != nil {
		t.Fatalf("re-encoding decoded response: %v", err)
	}
	if !bytes.Equal(stdlib.Bytes(), rec.Body.Bytes()) {
		t.Fatalf("served body is not canonical\nserved  %q\nre-enc %q", rec.Body.Bytes(), stdlib.Bytes())
	}
}

// FuzzIngestRequest throws arbitrary bytes at POST /v1/graphs/{name}/edges.
// The handler must never panic, every non-200 must carry a JSON error body
// (malformed JSON, self loops, out-of-range endpoints, and oversized
// universes are all 400s, never 500s), and every 200 must decode strictly
// into an IngestResponse whose counters match the accepted batch. State
// accrued across iterations is folded or reset so a long fuzz run's memory
// stays bounded by one batch, not by the history of all batches.
func FuzzIngestRequest(f *testing.F) {
	f.Add([]byte(`{"edges":[[0,1]]}`))
	f.Add([]byte(`{"edges":[[0,8],[1,9]],"deletes":[[0,1]]}`))
	f.Add([]byte(`{"deletes":[[2,3]]}`))
	f.Add([]byte(`{"vertices":32,"edges":[[16,31]]}`))
	f.Add([]byte(`{"edges":[[5,5]]}`))
	f.Add([]byte(`{"edges":[[0,70000]]}`))
	f.Add([]byte(`{"vertices":-5}`))
	f.Add([]byte(`{"vertices":268435457}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"edges":[[0,1]],"wat":true}`))
	f.Add([]byte(`not json at all`))
	srv := fuzzIngestServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs/g/edges", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req) // must not panic, whatever the body
		requireIngestAnswer(t, rec, body)
		// Bound cross-iteration state: fold a long delta log; replace the
		// server outright once a batch has legitimately grown the universe
		// big enough that folding it would itself be the expensive step.
		vg, err := srv.eng.reg.Versioned(context.Background(), "g")
		if err != nil {
			t.Fatal(err)
		}
		switch st := vg.Stats(); {
		case st.Vertices > 1<<20:
			srv = fuzzIngestServer()
		case st.Pending > 4096:
			srv.eng.CompactNow()
		}
	})
}

// requireIngestAnswer checks the ingest handler's reply invariants for any
// input.
func requireIngestAnswer(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q for body %q", ct, body)
	}
	if rec.Code != http.StatusOK {
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("ingest status = %d for body %q (only 200s and 4xx are reachable)", rec.Code, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d without a JSON error body: %q (req %q)", rec.Code, rec.Body.Bytes(), body)
		}
		return
	}
	var resp api.IngestResponse
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("200 body does not decode into IngestResponse: %v\nbody: %q", err, rec.Body.Bytes())
	}
	if resp.Graph != "g" || resp.Inserted < 0 || resp.Deleted < 0 || resp.Pending < 0 {
		t.Fatalf("accepted batch produced an inconsistent reply: %+v (req %q)", resp, body)
	}
}

// TestIngestRequestSeedCorpus replays the ingest seed corpus under plain
// `go test`, so the handler invariants run in every CI job, race included.
func TestIngestRequestSeedCorpus(t *testing.T) {
	srv := fuzzIngestServer()
	bodies := []string{
		`{"edges":[[0,1]]}`,
		`{"edges":[[0,8],[1,9]],"deletes":[[0,1]]}`,
		`{"vertices":32,"edges":[[16,31]]}`,
		`{"edges":[[5,5]]}`,
		`{"edges":[[0,70000]]}`,
		`{"deletes":[[0,4294967295]]}`,
		`{"vertices":-5}`,
		`{"vertices":268435457}`,
		`{}`,
		`[]`,
		`{"edges":null,"deletes":null}`,
		`{"edges":[[0,1]]} trailing`,
	}
	for _, body := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs/g/edges", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		requireIngestAnswer(t, rec, []byte(body))
	}
}

// TestIngestAllocsIndependentOfGraphSize pins the input-proportionality
// contract: accepting a one-edge batch allocates a small constant, even
// when the graph universe is a million vertices — ingestion must never
// touch O(n) or O(m) state on the write path.
func TestIngestAllocsIndependentOfGraphSize(t *testing.T) {
	reg := NewRegistry(1, false)
	reg.RegisterGraph("big", graph.FromEdges(1, 1<<20, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}))
	e := NewEngine(reg, Config{ProcBudget: 2, CacheSize: 8, CompactInterval: -1})
	t.Cleanup(e.Close)
	ctx := context.Background()

	ins := &api.IngestRequest{Edges: [][2]uint32{{500000, 900000}}}
	del := &api.IngestRequest{Deletes: [][2]uint32{{500000, 900000}}}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		req := ins
		if i%2 == 1 {
			req = del
		}
		i++
		if _, err := e.Ingest(ctx, "big", req); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 24 {
		t.Fatalf("one-edge ingest on a 2^20-vertex graph allocates %.1f objects per batch, want a small constant", avg)
	}
}

// TestClusterRequestSeedCorpus replays the seed corpus through the fuzz
// body under `go test` (no -fuzz flag), so the dispatch invariants run in
// every CI test job, race included.
func TestClusterRequestSeedCorpus(t *testing.T) {
	srv := fuzzServer()
	bodies := []string{
		`{"graph":"g","seeds":[0]}`,
		`{"graph":"g","algo":"prnibble","seeds":[0,1,2],"params":{"beta":0.5}}`,
		`{"graph":"g","algo":"evolving","seeds":[15],"params":{"max_iter":30,"grow_only":true}}`,
		`{"graph":"g","algo":"randhk","seeds":[2],"params":{"walks":200}}`,
		`{"graph":"g","seeds":[]}`,
		`{"graph":"g","seeds":[99]}`,
		`{"graph":"g","seeds":[0],"params":{"walks":100000000}}`,
		`{"graph":"g","seeds":[0],"params":{"epsilon":2}}`,
		`{"graph":"g","seeds":[0],"params":{"alpha":1e-12}}`,
		`{"graph":"g","seeds":[0],"params":{"epsilon":1e-300}}`,
		`{}`,
		`[]`,
	}
	for _, body := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		requireJSONAnswer(t, rec, []byte(body))
	}
}
