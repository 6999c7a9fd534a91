package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"parcluster/internal/api"
	"parcluster/internal/gen"
)

// streamTestServer builds an httptest server over a planted-partition graph
// big enough that cluster responses dwarf the kernel socket buffers.
func streamTestServer(t *testing.T) (*httptest.Server, *Engine, *Server) {
	t.Helper()
	g := gen.SBM(0, []int{2048, 2048}, 24, 2, 7)
	reg := NewRegistry(0, false)
	reg.RegisterGraph("g", g)
	eng := NewEngine(reg, Config{CacheSize: 64})
	srv := NewServer(eng)
	srv.Logf = func(string, ...any) {}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, eng, srv
}

// TestStreamedBodyMatchesBufferedMarshal proves the /v1/cluster and /v1/ncp
// bodies are exactly what json.Encoder produces for the same response
// value: decoding the served body and re-marshalling it with encoding/json
// must reproduce the body exactly (encoding/json is canonical — Marshal of
// an Unmarshal fixpoint — so any deviation in the body would survive the
// round trip and show up here).
func TestStreamedBodyMatchesBufferedMarshal(t *testing.T) {
	ts, _, _ := streamTestServer(t)
	t.Run("cluster", func(t *testing.T) {
		for _, reqBody := range []string{
			`{"graph":"g","seeds":[0,1,2048],"params":{"alpha":0.05,"epsilon":0.0001}}`,
			`{"graph":"g","algo":"hkpr","seeds":[5,6],"seed_set":true,"params":{"n":10,"epsilon":0.0001}}`,
			`{"graph":"g","algo":"randhk","seeds":[9],"params":{"walks":2000}}`,
			`{"graph":"g","seeds":[3],"max_members":4,"params":{"alpha":0.05,"epsilon":0.0001}}`,
		} {
			resp, err := http.Post(ts.URL+"/v1/cluster", "application/json", strings.NewReader(reqBody))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d err %v body %q", resp.StatusCode, err, body)
			}
			var decoded api.ClusterResponse
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&decoded); err != nil {
				t.Fatalf("decoding streamed body: %v", err)
			}
			var buffered bytes.Buffer
			if err := json.NewEncoder(&buffered).Encode(&decoded); err != nil {
				t.Fatalf("buffered re-marshal: %v", err)
			}
			if !bytes.Equal(buffered.Bytes(), body) {
				t.Fatalf("streamed body differs from buffered marshal\nstreamed %q\nbuffered %q", body, buffered.Bytes())
			}
		}
	})
	t.Run("ncp", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/ncp", "application/json",
			strings.NewReader(`{"graph":"g","seeds":5,"alphas":[0.05],"epsilons":[0.0001],"rng_seed":1}`))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d err %v body %q", resp.StatusCode, err, body)
		}
		var decoded api.NCPResponse
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatalf("decoding streamed body: %v", err)
		}
		var buffered bytes.Buffer
		if err := json.NewEncoder(&buffered).Encode(&decoded); err != nil {
			t.Fatalf("buffered re-marshal: %v", err)
		}
		if !bytes.Equal(buffered.Bytes(), body) {
			t.Fatalf("streamed ncp body differs from buffered marshal\nstreamed %q\nbuffered %q", body, buffered.Bytes())
		}
	})
}

// TestStreamReleasesArenasOnCompletion pins the happy path: a run of
// successful streamed responses, every unit a real diffusion, and the five
// result_* workspace counters still on the wire at 0 — results are owned
// allocations, so nothing is checked out or released.
func TestStreamReleasesArenasOnCompletion(t *testing.T) {
	ts, eng, _ := streamTestServer(t)
	for i := 0; i < 8; i++ {
		// no_cache so every request runs real diffusions rather than
		// hitting the result cache.
		body := fmt.Sprintf(`{"graph":"g","seeds":[%d,%d],"no_cache":true,"params":{"alpha":0.05,"epsilon":0.0001}}`, i, 2048+i)
		resp, err := http.Post(ts.URL+"/v1/cluster", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("reading body: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	st := eng.Stats()
	if st.Diffusions < 16 {
		t.Fatalf("expected >= 16 diffusions, got %d", st.Diffusions)
	}
	ws := st.Workspace
	if ws.ResultAcquires != 0 || ws.ResultHits != 0 || ws.ResultMisses != 0 ||
		ws.ResultReleases != 0 || ws.ResultBytesRecycled != 0 {
		t.Fatalf("result_* counters must read 0: %+v", ws)
	}
}

// failingWriter is an http.ResponseWriter whose Write starts failing after
// limit bytes — a deterministic stand-in for a client that vanishes
// mid-body. (A real-socket disconnect is inherently racy here: loopback TCP
// buffers autotune to multiple megabytes, so the kernel can absorb an
// entire response before a cancelled client's RST lands and the server
// never observes a failed write.)
type failingWriter struct {
	hdr   http.Header
	n     int
	limit int
}

func (w *failingWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}

func (w *failingWriter) WriteHeader(int) {}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, fmt.Errorf("client gone after %d bytes", w.n)
	}
	w.n += len(p)
	return len(p), nil
}

// TestStreamReleasesArenasOnClientDisconnect is the mid-stream disconnect
// test: a client that requests a multi-megabyte response and vanishes after
// the first few kilobytes is observed — the handler sees the failed write
// and logs it — on both the JSON and the NDJSON framing.
func TestStreamReleasesArenasOnClientDisconnect(t *testing.T) {
	_, eng, srv := streamTestServer(t)
	var logMu sync.Mutex
	var streamErrors int
	srv.Logf = func(format string, args ...any) {
		if strings.Contains(format, "writing") || strings.Contains(format, "ndjson") {
			logMu.Lock()
			streamErrors++
			logMu.Unlock()
		}
	}
	// Many HK-PR units (cheap: 10 Taylor levels each) whose sweeps each
	// list a community-sized cluster push the response well past the
	// failing writer's 32 KiB horizon, so the write fails mid-body.
	seeds := make([]string, 192)
	for i := range seeds {
		seeds[i] = fmt.Sprintf("%d", i*16)
	}
	reqBody := `{"graph":"g","algo":"hkpr","no_cache":true,"params":{"n":10,"epsilon":0.0001},"seeds":[` +
		strings.Join(seeds, ",") + `]}`

	for round := 0; round < 3; round++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster", strings.NewReader(reqBody))
		if round == 2 {
			// One round through the NDJSON framing, which fails between
			// lines with units still undelivered.
			req.Header.Set("Accept", "application/x-ndjson")
		}
		srv.ServeHTTP(&failingWriter{limit: 32 << 10}, req)
	}
	if st := eng.Stats(); st.Diffusions == 0 {
		t.Fatalf("disconnect test ran no queries: %+v", st)
	}
	logMu.Lock()
	errs := streamErrors
	logMu.Unlock()
	if errs == 0 {
		t.Fatalf("no handler ever observed a failed response write; the disconnect path was not exercised")
	}
}

// TestFinishedStreamHoldsNoArena pins that a streamed result is owned from
// the moment it is computed: every unit of a stream is published before the
// consumer reads a single one, and the results read out afterwards are
// byte-identical to a fresh no_cache Cluster answer, and to the cached
// answer but for its cached flag — at width 1 and through 64-lane groups.
func TestFinishedStreamHoldsNoArena(t *testing.T) {
	seeds := make([]uint32, 24)
	for i := range seeds {
		seeds[i] = uint32(i * 7)
	}
	for _, tc := range []struct {
		name  string
		lanes int
	}{{"width-1", 0}, {"64-lane", 64}} {
		t.Run(tc.name, func(t *testing.T) {
			e := batchTestEngine(t, 1, tc.lanes)
			ctx := context.Background()
			req := &ClusterRequest{Graph: "test", Seeds: seeds}
			st, err := e.StreamCluster(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			eventually(t, "every unit published", func() bool { return len(st.ch) == st.Units })
			streamed := make([]ClusterResult, st.Units)
			for {
				idx, res, ok := st.Next()
				if !ok {
					break
				}
				streamed[idx] = *res
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			fresh, err := e.Cluster(ctx, &ClusterRequest{Graph: "test", Seeds: seeds, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			cached, err := e.Cluster(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range streamed {
				hit := cached.Results[i]
				if !hit.Cached {
					t.Fatalf("unit %d of the repeated request was not a cache hit", i)
				}
				hit.Cached = false
				requireSameJSON(t, fmt.Sprintf("unit %d fresh", i), fresh.Results[i], want)
				requireSameJSON(t, fmt.Sprintf("unit %d cached", i), hit, want)
			}
		})
	}
}

// requireSameJSON fails unless got and want encode to the same bytes.
func requireSameJSON(t *testing.T, what string, got, want ClusterResult) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s differs from the streamed result\ngot  %s\nwant %s", what, g, w)
	}
}
