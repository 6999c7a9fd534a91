package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"parcluster/internal/api"
)

// newTestServer stands up the full HTTP stack over a small caveman graph.
func newTestServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	reg := NewRegistry(2, false)
	if err := reg.RegisterSpec("test", "caveman:cliques=16,k=12"); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(reg, Config{ProcBudget: 4, CacheSize: 64})
	srv := NewServer(eng)
	srv.Logf = t.Logf
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, eng
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestServerCluster(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/cluster",
		`{"graph":"test","algo":"prnibble","seeds":[0,12,24]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if cr.Vertices != 192 || len(cr.Results) != 3 {
		t.Fatalf("response = %+v", cr)
	}
	for _, r := range cr.Results {
		if r.Size == 0 || len(r.Members) != r.Size {
			t.Fatalf("result = %+v", r)
		}
	}
	if cr.Aggregate.Queries != 3 || cr.Aggregate.ElapsedMS <= 0 {
		t.Fatalf("aggregate = %+v", cr.Aggregate)
	}
}

func TestServerClusterErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, body string
		status     int
	}{
		{"unknown graph", `{"graph":"nope","seeds":[0]}`, http.StatusNotFound},
		{"malformed json", `{"graph":`, http.StatusBadRequest},
		{"unknown field", `{"graph":"test","seeds":[0],"wat":1}`, http.StatusBadRequest},
		{"empty seeds", `{"graph":"test","seeds":[]}`, http.StatusBadRequest},
		{"bad algo", `{"graph":"test","seeds":[0],"algo":"bfs"}`, http.StatusBadRequest},
		{"seed out of range", `{"graph":"test","seeds":[4096]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/cluster", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		var eb api.ErrorResponse
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body = %s", tc.name, body)
		}
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/cluster status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}

func TestServerNCP(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/ncp",
		`{"graph":"test","seeds":5,"alphas":[0.01],"epsilons":[1e-6],"envelope":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var nr NCPResponse
	if err := json.Unmarshal(body, &nr); err != nil {
		t.Fatal(err)
	}
	if len(nr.Points) == 0 {
		t.Fatalf("no NCP points: %s", body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/ncp", `{"graph":"nope"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph status = %d, want 404", resp.StatusCode)
	}
}

func TestServerGraphsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var gl struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(gl.Graphs) != 1 || gl.Graphs[0].Name != "test" || gl.Graphs[0].Loaded {
		t.Fatalf("graphs = %+v, want one unloaded entry \"test\"", gl.Graphs)
	}

	postJSON(t, ts.URL+"/v1/cluster", `{"graph":"test","seeds":[0]}`)
	resp, err = http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&gl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !gl.Graphs[0].Loaded || gl.Graphs[0].Vertices != 192 {
		t.Fatalf("after query: %+v, want loaded with 192 vertices", gl.Graphs[0])
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
}

func TestServerCacheHitCounter(t *testing.T) {
	ts, eng := newTestServer(t)
	const q = `{"graph":"test","algo":"nibble","seeds":[7]}`
	resp, body := postJSON(t, ts.URL+"/v1/cluster", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp.StatusCode, body)
	}
	ran := eng.Stats().Diffusions

	resp, body = postJSON(t, ts.URL+"/v1/cluster", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: %d %s", resp.StatusCode, body)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Results[0].Cached {
		t.Fatal("repeated query not served from cache")
	}
	st := eng.Stats()
	if st.Diffusions != ran {
		t.Fatalf("repeated query re-ran the diffusion: %d -> %d", ran, st.Diffusions)
	}
	if st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.CacheHits)
	}

	// The stats endpoint reports the same counters.
	hresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var got EngineStats
	if err := json.NewDecoder(hresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.CacheHits != 1 || got.Diffusions != ran {
		t.Fatalf("/v1/stats = %+v", got)
	}
}

func TestServerExpvar(t *testing.T) {
	ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/v1/cluster", `{"graph":"test","seeds":[1]}`)
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var vars struct {
		LGC EngineStats `json:"lgc"`
	}
	if err := json.Unmarshal(data, &vars); err != nil {
		t.Fatalf("expvar body not JSON: %v", err)
	}
	// The lgc var aggregates every engine the process has created, so
	// other tests' queries count too; this engine contributed at least one.
	if vars.LGC.Queries < 1 || vars.LGC.Diffusions < 1 {
		t.Fatalf("expvar lgc = %+v, want counters > 0", vars.LGC)
	}
}

func TestServerCloseUnpublishes(t *testing.T) {
	reg := NewRegistry(1, false)
	eng := NewEngine(reg, Config{ProcBudget: 1})
	srv := NewServer(eng)
	found := func() bool {
		expMu.Lock()
		defer expMu.Unlock()
		for _, e := range expEngines {
			if e == eng {
				return true
			}
		}
		return false
	}
	if !found() {
		t.Fatal("NewServer did not publish the engine")
	}
	srv.Close()
	if found() {
		t.Fatal("Close left the engine in the expvar export")
	}
	srv.Close() // idempotent
}

func TestServerConcurrentClients(t *testing.T) {
	ts, eng := newTestServer(t)
	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var body string
			switch i % 3 {
			case 0: // same cacheable query from many clients
				body = `{"graph":"test","seeds":[0]}`
			case 1:
				body = fmt.Sprintf(`{"graph":"test","algo":"hkpr","seeds":[%d]}`, (i*12)%192)
			case 2:
				body = fmt.Sprintf(`{"graph":"test","seeds":[%d,%d],"seed_set":true}`, i%192, (i+5)%192)
			}
			resp, err := http.Post(ts.URL+"/v1/cluster", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			var cr ClusterResponse
			if err := json.Unmarshal(data, &cr); err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			if len(cr.Results) == 0 || cr.Results[0].Size == 0 {
				errs <- fmt.Errorf("client %d: empty result", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := eng.Stats(); st.Queries != clients || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want %d queries and 0 in flight", st, clients)
	}
	// All concurrent clients shared one graph load.
	if eng.Registry().Loads() != 1 {
		t.Fatalf("graph loaded %d times, want 1", eng.Registry().Loads())
	}
}

// TestServerWorkspaceStats checks the per-graph workspace pool shows up in
// /v1/stats: diffusions acquire and release workspaces, repeats hit the
// pool, and forced dense runs recycle graph-sized bytes.
func TestServerWorkspaceStats(t *testing.T) {
	ts, eng := newTestServer(t)
	// no_cache forces every request to actually run a diffusion; dense mode
	// forces graph-sized arenas so a pool hit has bytes to recycle.
	const q = `{"graph":"test","algo":"prnibble","seeds":[0],"no_cache":true,"params":{"frontier":"dense"}}`
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/cluster", q); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}
	ws := eng.Stats().Workspace
	if ws.Pools != 1 {
		t.Fatalf("pools = %d, want 1", ws.Pools)
	}
	if ws.Acquires < 3 || ws.Acquires != ws.Releases {
		t.Fatalf("acquires=%d releases=%d, want >= 3 and equal", ws.Acquires, ws.Releases)
	}
	if ws.Hits < 1 || ws.Hits+ws.Misses != ws.Acquires {
		t.Fatalf("hits=%d misses=%d acquires=%d", ws.Hits, ws.Misses, ws.Acquires)
	}
	if ws.BytesRecycled <= 0 {
		t.Fatalf("bytes_recycled = %d, want > 0", ws.BytesRecycled)
	}

	// And the wire endpoint carries the same nested object.
	hresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var got EngineStats
	if err := json.NewDecoder(hresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Workspace != ws {
		t.Fatalf("/v1/stats workspace = %+v, want %+v", got.Workspace, ws)
	}
}
