package service

// sched_stream_test.go covers the scheduler-driven request pipeline end to
// end over HTTP: NDJSON framing and its byte-level equivalence to the
// buffered encoder, streaming delivery before the batch finishes, deadline
// cancellation semantics (terminal error records, the deadline counter),
// queue-depth backpressure, graceful drain, and the scheduler counters in
// /v1/stats.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parcluster/internal/api"
)

// slowUnitWalks sizes a rand-HK-PR unit to tens of milliseconds on any
// plausible CI machine — long enough to observe streams mid-batch, short
// enough to keep the suite fast.
const slowUnitWalks = 500000

// schedTestServer builds an httptest server with an explicit engine config.
func schedTestServer(t *testing.T, cfg Config) (*httptest.Server, *Engine, *Server) {
	t.Helper()
	reg := NewRegistry(1, false)
	if err := reg.RegisterSpec("g", "caveman:cliques=16,k=12"); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(reg, cfg)
	srv := NewServer(eng)
	srv.Logf = func(string, ...any) {}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, eng, srv
}

// ndjsonLines posts body to url and splits the NDJSON response into lines.
func ndjsonLines(t *testing.T, url, body string) (status int, contentType string, lines []string) {
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
	raw := strings.TrimSuffix(string(data), "\n")
	if raw == "" {
		return resp.StatusCode, resp.Header.Get("Content-Type"), nil
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), strings.Split(raw, "\n")
}

// TestClusterStreamMatchesBufferedPerLine is the byte-identity acceptance
// check: every result record of the NDJSON stream must be byte-identical to
// the corresponding element the buffered encoder produces for the same
// deterministic query.
func TestClusterStreamMatchesBufferedPerLine(t *testing.T) {
	ts, _, _ := schedTestServer(t, Config{ProcBudget: 2, CacheSize: -1})
	const body = `{"graph":"g","algo":"prnibble","seeds":[0,12,24,36],"no_cache":true}`

	resp, err := http.Post(ts.URL+"/v1/cluster", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("buffered: status %d err %v", resp.StatusCode, err)
	}
	var bufResp api.ClusterResponse
	if err := json.Unmarshal(buffered, &bufResp); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(bufResp.Results)) // first seed -> expected line
	for i := range bufResp.Results {
		var line bytes.Buffer
		if err := api.WriteClusterResultLine(&line, &bufResp.Results[i]); err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprint(bufResp.Results[i].Seeds[0])] = line.String()
	}

	status, ct, lines := ndjsonLines(t, ts.URL+"/v1/cluster/stream", body)
	if status != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("stream: status %d content-type %q", status, ct)
	}
	if len(lines) != 2+len(bufResp.Results) {
		t.Fatalf("stream has %d lines, want header + %d results + trailer", len(lines), len(bufResp.Results))
	}
	var hdr struct {
		Graph   string `json:"graph"`
		Results int    `json:"results"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Graph != "g" || hdr.Results != 4 {
		t.Fatalf("header %q: %v / %+v", lines[0], err, hdr)
	}
	for _, line := range lines[1 : len(lines)-1] {
		var rec api.ClusterResult
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		expect, ok := want[fmt.Sprint(rec.Seeds[0])]
		if !ok {
			t.Fatalf("stream delivered a result for unexpected seeds %v", rec.Seeds)
		}
		if line+"\n" != expect {
			t.Fatalf("per-line payload differs from buffered encoder\nstream   %q\nbuffered %q", line+"\n", expect)
		}
	}
	var trailer struct {
		Aggregate api.Aggregate `json:"aggregate"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || trailer.Aggregate.Queries != 4 {
		t.Fatalf("trailer %q: %v", lines[len(lines)-1], err)
	}
}

// TestAcceptHeaderNegotiatesNDJSON checks the buffered endpoint switches to
// the NDJSON framing under Accept: application/x-ndjson.
func TestAcceptHeaderNegotiatesNDJSON(t *testing.T) {
	ts, _, _ := schedTestServer(t, Config{ProcBudget: 2})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/cluster",
		strings.NewReader(`{"graph":"g","seeds":[0,12]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain, application/x-ndjson;q=0.9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q, want application/x-ndjson", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	if got := bytes.Count(data, []byte("\n")); got != 4 {
		t.Fatalf("negotiated stream has %d lines, want 4 (header, 2 results, trailer):\n%s", got, data)
	}
}

// TestStreamDeliversResultsBeforeBatchFinishes is the streaming acceptance
// check: with a one-token budget serializing three slow units, the client
// must observe the first result line while later units have not run.
func TestStreamDeliversResultsBeforeBatchFinishes(t *testing.T) {
	ts, eng, _ := schedTestServer(t, Config{ProcBudget: 1, CacheSize: -1})
	body := fmt.Sprintf(`{"graph":"g","algo":"randhk","seeds":[0,12,24],"no_cache":true,"params":{"walks":%d}}`, slowUnitWalks)
	resp, err := http.Post(ts.URL+"/v1/cluster/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no header line: %v", sc.Err())
	}
	if !sc.Scan() {
		t.Fatalf("no first result line: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), `"seeds"`) {
		t.Fatalf("second line is not a result record: %q", sc.Text())
	}
	// The first result is on the wire; the third unit must not have run
	// yet (one token, ~60ms per unit — the line reached us in microseconds).
	if ran := eng.Stats().Diffusions; ran >= 3 {
		t.Fatalf("first line observed only after all %d units ran", ran)
	}
	var rest int
	for sc.Scan() {
		rest++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if rest != 3 { // two more results + trailer
		t.Fatalf("stream ended with %d lines after the first result, want 3", rest)
	}
}

// TestStreamDeadlineMidBatch pins the cancellation semantics of the
// acceptance criteria: a deadline expiring mid-batch ends the NDJSON stream
// with a terminal error record and bumps the scheduler's deadline counter.
func TestStreamDeadlineMidBatch(t *testing.T) {
	ts, eng, _ := schedTestServer(t, Config{ProcBudget: 1, CacheSize: -1})
	body := fmt.Sprintf(
		`{"graph":"g","algo":"randhk","seeds":[0,12,24,36,48,60],"no_cache":true,"deadline_ms":150,"params":{"walks":%d}}`,
		slowUnitWalks)
	status, _, lines := ndjsonLines(t, ts.URL+"/v1/cluster/stream", body)
	if status != http.StatusOK {
		t.Fatalf("status %d (the header had already committed 200)", status)
	}
	if len(lines) < 2 || len(lines) >= 8 {
		t.Fatalf("partial stream has %d lines; want header + some results + error", len(lines))
	}
	var errRec struct {
		Error string `json:"error"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &errRec); err != nil || errRec.Error == "" {
		t.Fatalf("stream did not end with a terminal error record: %q", last)
	}
	if !strings.Contains(errRec.Error, "deadline") {
		t.Fatalf("terminal error %q does not mention the deadline", errRec.Error)
	}
	eventually(t, "deadline_missed counted", func() bool {
		return eng.Stats().Sched.Interactive.DeadlineMissed > 0
	})
}

// TestBufferedDeadlineReturns504 checks the buffered endpoint's structured
// deadline error: expired work is a 504 with an error body.
func TestBufferedDeadlineReturns504(t *testing.T) {
	ts, _, _ := schedTestServer(t, Config{ProcBudget: 1, CacheSize: -1})
	body := fmt.Sprintf(
		`{"graph":"g","algo":"randhk","seeds":[0,12,24,36],"no_cache":true,"deadline_ms":100,"params":{"walks":%d}}`,
		slowUnitWalks)
	resp, data := postJSON(t, ts.URL+"/v1/cluster", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, data)
	}
	var eb api.ErrorResponse
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
		t.Fatalf("no structured error body: %s", data)
	}
	// An already-expired deadline is rejected at admission, before any work.
	resp, data = postJSON(t, ts.URL+"/v1/cluster", `{"graph":"g","seeds":[0],"deadline_ms":1,"no_cache":true,"algo":"randhk","params":{"walks":10000000}}`)
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK {
		t.Fatalf("tiny deadline: status %d body %s", resp.StatusCode, data)
	}
}

// TestQueueFullReturns429 checks the backpressure path: with a one-request
// admission bound, a second concurrent interactive request is rejected with
// 429 and a Retry-After hint instead of queueing.
func TestQueueFullReturns429(t *testing.T) {
	ts, eng, _ := schedTestServer(t, Config{ProcBudget: 1, CacheSize: -1, MaxQueue: 1})
	slow := fmt.Sprintf(`{"graph":"g","algo":"randhk","seeds":[0,12,24],"no_cache":true,"params":{"walks":%d}}`, slowUnitWalks)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/cluster", "application/json", strings.NewReader(slow))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slow request status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	for eng.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	resp, data := postJSON(t, ts.URL+"/v1/cluster", `{"graph":"g","seeds":[0]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	// The batch class has its own bound: an NCP request (batch by default)
	// is not rejected by the interactive bound.
	resp, data = postJSON(t, ts.URL+"/v1/ncp", `{"graph":"g","seeds":2,"alphas":[0.05],"epsilons":[0.001]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch-class NCP blocked by interactive bound: %d %s", resp.StatusCode, data)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Sched.Interactive.Rejected; got == 0 {
		t.Fatalf("interactive rejected counter = %d, want > 0", got)
	}
}

// TestServerDrainGraceful is the graceful-shutdown satellite: draining
// stops admission (503 + Retry-After, healthz flips), lets the in-flight
// request finish cleanly, and Drain returns once the last request closes.
func TestServerDrainGraceful(t *testing.T) {
	ts, eng, srv := schedTestServer(t, Config{ProcBudget: 1, CacheSize: -1})
	slow := fmt.Sprintf(`{"graph":"g","algo":"randhk","seeds":[0,12,24],"no_cache":true,"params":{"walks":%d}}`, slowUnitWalks)
	slowDone := make(chan error, 1)
	go func() {
		status, _, lines := 0, "", []string(nil)
		defer func() {
			if status != http.StatusOK {
				slowDone <- fmt.Errorf("slow stream status %d", status)
				return
			}
			last := ""
			if len(lines) > 0 {
				last = lines[len(lines)-1]
			}
			if !strings.Contains(last, `"aggregate"`) {
				slowDone <- fmt.Errorf("in-flight stream did not close cleanly with a trailer: %q", last)
				return
			}
			slowDone <- nil
		}()
		status, _, lines = ndjsonLines(t, ts.URL+"/v1/cluster/stream", slow)
	}()
	for eng.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(t.Context()) }()
	for !eng.Stats().Sched.Draining {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while draining.
	resp, data := postJSON(t, ts.URL+"/v1/cluster", `{"graph":"g","seeds":[0]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request while draining: status %d body %s, want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 carries no Retry-After")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(hbody), "draining") {
		t.Fatalf("healthz while draining: %d %s", hresp.StatusCode, hbody)
	}

	// The in-flight stream finishes with its full NDJSON framing, then the
	// drain completes.
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the last request finished")
	}
}

// TestSchedStatsSurfaced checks the scheduler counters flow through
// /v1/stats: class labels are honored (NCP defaults to batch), invalid
// classes and negative deadlines are 400s.
func TestSchedStatsSurfaced(t *testing.T) {
	ts, eng, _ := schedTestServer(t, Config{ProcBudget: 2})
	if resp, data := postJSON(t, ts.URL+"/v1/cluster", `{"graph":"g","seeds":[0]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive query: %d %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/cluster", `{"graph":"g","seeds":[12],"class":"background"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("background query: %d %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/ncp", `{"graph":"g","seeds":2,"alphas":[0.05],"epsilons":[0.001]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ncp query: %d %s", resp.StatusCode, data)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/cluster", `{"graph":"g","seeds":[0],"class":"realtime"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus class: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/cluster", `{"graph":"g","seeds":[0],"deadline_ms":-1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline: status %d, want 400", resp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var st EngineStats
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sched.Tokens < 1 || st.Sched.Avail != st.Sched.Tokens {
		t.Fatalf("sched tokens/avail = %d/%d", st.Sched.Tokens, st.Sched.Avail)
	}
	if st.Sched.Interactive.Admitted < 1 || st.Sched.Background.Admitted != 1 || st.Sched.Batch.Admitted != 1 {
		t.Fatalf("class admissions = %+v", st.Sched)
	}
	if st.Sched.Interactive.Weight <= st.Sched.Batch.Weight || st.Sched.Batch.Weight <= st.Sched.Background.Weight {
		t.Fatalf("default weights not ordered: %+v", st.Sched)
	}
	want := eng.Stats().Sched
	if st.Sched.Interactive != want.Interactive || st.Sched.Batch != want.Batch {
		t.Fatalf("/v1/stats sched diverges from engine: %+v vs %+v", st.Sched, want)
	}
}

// TestClassesReturnIdenticalResults pins determinism under the scheduler:
// the same deterministic batch run under different classes and worker
// budgets yields identical result payloads.
func TestClassesReturnIdenticalResults(t *testing.T) {
	ts, _, _ := schedTestServer(t, Config{ProcBudget: 4})
	get := func(class string, procs int) []api.ClusterResult {
		body := fmt.Sprintf(`{"graph":"g","algo":"prnibble","seeds":[0,12,24],"no_cache":true,"procs":%d,"class":%q}`, procs, class)
		resp, data := postJSON(t, ts.URL+"/v1/cluster", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("class %q: %d %s", class, resp.StatusCode, data)
		}
		var cr api.ClusterResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatal(err)
		}
		return cr.Results
	}
	base := get("interactive", 1)
	for _, variant := range [][]api.ClusterResult{get("batch", 2), get("background", 4)} {
		if len(variant) != len(base) {
			t.Fatalf("result counts differ: %d vs %d", len(variant), len(base))
		}
		for i := range base {
			var a, b bytes.Buffer
			if err := api.WriteClusterResultLine(&a, &base[i]); err != nil {
				t.Fatal(err)
			}
			if err := api.WriteClusterResultLine(&b, &variant[i]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("unit %d differs across classes:\n%s\n%s", i, a.String(), b.String())
			}
		}
	}
}
