package service

// ingest_test.go is the mutable-graph lifecycle battery: epoch-keyed cache
// correctness across ingest batches (no stale hit can survive a mutation,
// with zero explicit invalidation), snapshot pinning under concurrent
// ingest + query + forced compaction (run under -race), and the HTTP
// surface of POST /v1/graphs/{name}/edges.

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"parcluster/internal/api"
	"parcluster/internal/graph"
	"parcluster/internal/sched"
)

// twoCliqueEngine builds an engine over two disconnected 4-cliques: seed 0
// finds {0,1,2,3} at conductance 0, so any cross-clique edge visibly
// changes the answer.
func twoCliqueEngine(t *testing.T) *Engine {
	t.Helper()
	var edges []graph.Edge
	for _, base := range []uint32{0, 4} {
		for i := base; i < base+4; i++ {
			for j := i + 1; j < base+4; j++ {
				edges = append(edges, graph.Edge{U: i, V: j})
			}
		}
	}
	reg := NewRegistry(1, false)
	reg.RegisterGraph("twoclique", graph.FromEdges(1, 8, edges))
	e := NewEngine(reg, Config{ProcBudget: 2, CacheSize: 64})
	t.Cleanup(e.Close)
	return e
}

func clusterOnce(t *testing.T, e *Engine, seeds ...uint32) *ClusterResponse {
	t.Helper()
	resp, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "twoclique", Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestIngestEpochCacheIsolation is the invalidation-free correctness core:
// every mutation must change the answer a query sees, and every reversal
// must not resurrect a stale cache entry — purely through epoch-qualified
// keys, with nothing ever explicitly evicted.
func TestIngestEpochCacheIsolation(t *testing.T) {
	e := twoCliqueEngine(t)
	ctx := context.Background()

	r0 := clusterOnce(t, e, 0)
	if r0.Epoch != 0 || r0.Results[0].Conductance != 0 || r0.Results[0].Size != 4 {
		t.Fatalf("epoch-0 baseline = epoch %d, result %+v", r0.Epoch, r0.Results[0])
	}
	if hit := clusterOnce(t, e, 0); !hit.Results[0].Cached {
		t.Fatal("same-epoch repeat was not served from cache")
	}

	// Bridge the cliques: the epoch advances and the cached epoch-0 answer
	// must become unreachable without any invalidation having run.
	ir, err := e.Ingest(ctx, "twoclique", &api.IngestRequest{Edges: [][2]uint32{{3, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Epoch != 1 || ir.Pending != 1 || ir.Inserted != 1 {
		t.Fatalf("ingest reply = %+v", ir)
	}
	r1 := clusterOnce(t, e, 0)
	if r1.Epoch < ir.Epoch {
		t.Fatalf("post-ingest query ran at epoch %d < ingest epoch %d", r1.Epoch, ir.Epoch)
	}
	if r1.Results[0].Cached {
		t.Fatal("stale cache hit: post-ingest query served the pre-ingest entry")
	}
	if r1.Results[0].Conductance == 0 && r1.Results[0].Size == 4 {
		t.Fatalf("post-ingest result does not see the bridge: %+v", r1.Results[0])
	}

	// Revert the bridge: the edge set equals epoch 0's, but the epoch is
	// new, so the query recomputes instead of resurrecting the old entry.
	if _, err := e.Ingest(ctx, "twoclique", &api.IngestRequest{Deletes: [][2]uint32{{3, 4}}}); err != nil {
		t.Fatal(err)
	}
	r2 := clusterOnce(t, e, 0)
	if r2.Epoch != 2 {
		t.Fatalf("post-revert epoch = %d, want 2", r2.Epoch)
	}
	if r2.Results[0].Cached {
		t.Fatal("reverted edge set reused a cache entry from a different epoch")
	}
	if r2.Results[0].Conductance != 0 || r2.Results[0].Size != 4 {
		t.Fatalf("post-revert result = %+v, want the epoch-0 answer recomputed", r2.Results[0])
	}

	// Compaction folds the log but leaves the edge set — and therefore the
	// epoch and every epoch-2 cache entry — untouched.
	e.CompactNow()
	st := e.Stats()
	if st.Ingest.Pending != 0 || st.Ingest.Compactions == 0 {
		t.Fatalf("post-compaction ingest stats = %+v", st.Ingest)
	}
	r3 := clusterOnce(t, e, 0)
	if r3.Epoch != 2 || !r3.Results[0].Cached {
		t.Fatalf("post-compaction query = epoch %d cached %v, want the epoch-2 entry to survive", r3.Epoch, r3.Results[0].Cached)
	}
}

// TestIngestUniverseGrowth grows the vertex universe mid-flight and checks
// new vertices are immediately seedable while old epochs keep their size.
func TestIngestUniverseGrowth(t *testing.T) {
	e := twoCliqueEngine(t)
	ctx := context.Background()
	ir, err := e.Ingest(ctx, "twoclique", &api.IngestRequest{
		Edges:    [][2]uint32{{8, 9}, {8, 0}},
		Vertices: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Vertices != 10 {
		t.Fatalf("universe = %d, want 10", ir.Vertices)
	}
	resp := clusterOnce(t, e, 9)
	if resp.Vertices != 10 || resp.Results[0].Size == 0 {
		t.Fatalf("query on grown vertex: vertices=%d result=%+v", resp.Vertices, resp.Results[0])
	}
}

// TestIngestRejectsBadBatches pins the 400 surface: each rejection must be
// ErrBadRequest-mapped and atomic (nothing applied, epoch unchanged).
func TestIngestRejectsBadBatches(t *testing.T) {
	e := twoCliqueEngine(t)
	ctx := context.Background()
	cases := []struct {
		name string
		req  api.IngestRequest
	}{
		{"empty", api.IngestRequest{}},
		{"self loop", api.IngestRequest{Edges: [][2]uint32{{1, 1}}}},
		{"out of range insert", api.IngestRequest{Edges: [][2]uint32{{0, 8}}}},
		{"out of range delete", api.IngestRequest{Deletes: [][2]uint32{{0, 100}}}},
		{"negative vertices", api.IngestRequest{Vertices: -1}},
		{"oversized vertices", api.IngestRequest{Vertices: maxIngestVertices + 1}},
		{"valid then invalid", api.IngestRequest{Edges: [][2]uint32{{0, 4}, {2, 2}}}},
	}
	for _, tc := range cases {
		if _, err := e.Ingest(ctx, "twoclique", &tc.req); err == nil || !strings.Contains(err.Error(), ErrBadRequest.Error()) {
			t.Fatalf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
	if _, err := e.Ingest(ctx, "missing", &api.IngestRequest{Edges: [][2]uint32{{0, 1}}}); err == nil {
		t.Fatal("unknown graph accepted")
	}
	if ep := e.Stats().Ingest.Epoch; ep != 0 {
		t.Fatalf("rejected batches advanced the epoch to %d", ep)
	}
}

// TestIngestDrainRefuses checks mutation follows the drain contract: a
// draining engine refuses new batches with the 503-mapped sentinel.
func TestIngestDrainRefuses(t *testing.T) {
	e := twoCliqueEngine(t)
	e.BeginDrain()
	_, err := e.Ingest(context.Background(), "twoclique", &api.IngestRequest{Edges: [][2]uint32{{0, 4}}})
	if err != sched.ErrDraining {
		t.Fatalf("err = %v, want sched.ErrDraining", err)
	}
}

// TestIngestQueryCompactionRace is the -race lifecycle stress: writers
// mutate, readers query (buffered and streaming, including mid-stream
// abandonment), and a compactor folds — all concurrently. Afterwards the
// engine must be quiescent: zero pinned snapshots, zero in-flight requests,
// per-goroutine monotone epochs, and counters that add up.
func TestIngestQueryCompactionRace(t *testing.T) {
	reg := NewRegistry(2, false)
	if err := reg.RegisterSpec("test", "caveman:cliques=16,k=12"); err != nil {
		t.Fatal(err)
	}
	// A tiny delta threshold so ingest itself kicks the background
	// compactor into the mix on top of the forced CompactNow loop.
	e := NewEngine(reg, Config{ProcBudget: 4, CacheSize: 64, MaxDeltaEdges: 8})
	defer e.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	var batches atomic.Int64

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				u := uint32((w*53 + i*7) % 192)
				v := uint32((w*31 + i*13 + 1) % 192)
				if u == v {
					v = (v + 1) % 192
				}
				req := &api.IngestRequest{Edges: [][2]uint32{{u, v}}}
				if i%3 == 0 {
					req = &api.IngestRequest{Deletes: [][2]uint32{{u, v}}}
				}
				if _, err := e.Ingest(ctx, "test", req); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				batches.Add(1)
			}
		}(w)
	}

	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; i < 25; i++ {
				resp, err := e.Cluster(ctx, &ClusterRequest{
					Graph: "test",
					Seeds: []uint32{uint32((q*12 + i) % 192)},
				})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if resp.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", resp.Epoch, lastEpoch)
					return
				}
				lastEpoch = resp.Epoch
			}
		}(q)
	}

	// Streaming consumers that walk away mid-batch: the pin must still come
	// home.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			st, err := e.StreamCluster(ctx, &ClusterRequest{
				Graph: "test",
				Seeds: []uint32{0, 12, 24, 36, 48, 60},
			})
			if err != nil {
				t.Errorf("stream: %v", err)
				return
			}
			for read := 0; read < 2; read++ {
				st.Next()
			}
			st.Close() // abandon the remaining units
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			e.CompactNow()
			runtime.Gosched()
		}
	}()

	wg.Wait()
	e.CompactNow()
	st := e.Stats()
	if st.Ingest.Pins != 0 {
		t.Fatalf("leaked %d snapshot pins after quiescence", st.Ingest.Pins)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after quiescence", st.InFlight)
	}
	if st.Ingest.Batches != batches.Load() {
		t.Fatalf("ingest batches counter = %d, applied %d", st.Ingest.Batches, batches.Load())
	}
	if st.Ingest.Pending != 0 {
		t.Fatalf("pending deltas = %d after final compaction", st.Ingest.Pending)
	}
}

// TestIngestHTTP drives the wire surface: the route shape, success reply,
// and each error mapping.
func TestIngestHTTP(t *testing.T) {
	ts, eng := newTestServer(t)
	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		return postJSON(t, ts.URL+path, body)
	}

	resp, body := post("/v1/graphs/test/edges", `{"edges":[[0,13]],"deletes":[[0,1]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body = %s", resp.StatusCode, body)
	}
	var ir api.IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if ir.Graph != "test" || ir.Epoch != 1 || ir.Inserted != 1 || ir.Deleted != 1 || ir.Pending != 2 {
		t.Fatalf("ingest reply = %+v", ir)
	}

	// The mutated epoch flows into query responses and the NDJSON header.
	resp, body = post("/v1/cluster", `{"graph":"test","seeds":[0]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status = %d", resp.StatusCode)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Epoch != 1 {
		t.Fatalf("cluster response epoch = %d, want 1", cr.Epoch)
	}

	cases := []struct {
		name, path, body string
		status           int
	}{
		{"unknown graph", "/v1/graphs/nope/edges", `{"edges":[[0,1]]}`, http.StatusNotFound},
		{"unknown subpath", "/v1/graphs/test/nope", `{}`, http.StatusNotFound},
		{"missing name", "/v1/graphs//edges", `{}`, http.StatusNotFound},
		{"malformed json", "/v1/graphs/test/edges", `{"edges":`, http.StatusBadRequest},
		{"unknown field", "/v1/graphs/test/edges", `{"wat":1}`, http.StatusBadRequest},
		{"empty batch", "/v1/graphs/test/edges", `{}`, http.StatusBadRequest},
		{"self loop", "/v1/graphs/test/edges", `{"edges":[[5,5]]}`, http.StatusBadRequest},
		{"out of range", "/v1/graphs/test/edges", `{"edges":[[0,100000]]}`, http.StatusBadRequest},
		{"malformed pair", "/v1/graphs/test/edges", `{"edges":[["a",2]]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := post(tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}

	r, err := http.Get(ts.URL + "/v1/graphs/test/edges")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest status = %d, want 405", r.StatusCode)
	}

	// The listing carries the mutation state.
	r, err = http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	err = json.NewDecoder(r.Body).Decode(&listing)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Graphs) != 1 || listing.Graphs[0].Epoch != 1 || listing.Graphs[0].Pending != 2 {
		t.Fatalf("listing = %+v", listing.Graphs)
	}

	// Draining refuses mutation with 503 like any other new work.
	eng.BeginDrain()
	resp, _ = post("/v1/graphs/test/edges", `{"edges":[[0,1]]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest status = %d, want 503", resp.StatusCode)
	}
}
