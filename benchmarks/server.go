package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parcluster"
)

// server is one running lgc-serve process.
type server struct {
	cmd       *exec.Cmd
	base      string // http://127.0.0.1:port
	logPath   string
	flags     []string
	coldStart time.Duration // spawn to the first 200 from /healthz
	waited    chan struct{} // closed once cmd.Wait returned
}

// freePort asks the kernel for a port nobody listens on. Another process
// could take it before lgc-serve binds; startServer then fails loudly.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns lgc-serve on the packed graph with its shipped defaults
// plus extra, and returns once /healthz answers 200 (with -preload that means
// the graph is open and, with a WAL, recovered).
func startServer(e *env, lgz string, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	flags := append([]string{"-graph", "g=" + lgz, "-preload", "g", "-procs", strconv.Itoa(e.procs)}, extra...)
	logPath := filepath.Join(e.work, fmt.Sprintf("lgc-serve-%d.log", port))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(e.serverBin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting lgc-serve: %w", err)
	}
	trackProc(cmd)
	s := &server{cmd: cmd, base: "http://" + addr, logPath: logPath, flags: flags, waited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server we signal ourselves says nothing
		untrackProc(cmd)
		close(s.waited)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.coldStart = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-s.waited:
			return nil, fmt.Errorf("lgc-serve exited before it was healthy:\n%s", s.logTail())
		default:
		}
		if time.Since(start) > 60*time.Second {
			s.kill()
			return nil, fmt.Errorf("lgc-serve not healthy after 60 s:\n%s", s.logTail())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (s *server) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop drains the server with SIGINT and waits for it; a server that has not
// exited after ten seconds is killed.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGINT) // already exited is fine
	select {
	case <-s.waited:
	case <-time.After(10 * time.Second):
		s.kill()
	}
}

// kill is SIGKILL: the crash of serve-ingest, and the last resort of stop.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.waited
}

func (s *server) rssPeakMB() (float64, error) { return rssPeakMB(s.cmd.Process.Pid) }

// newClient is one load-generator connection: keep-alive, no shared pool, so
// a client goroutine is a connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// clusterBody renders a ClusterRequest for seeds with the workload's fixed
// kernel parameters; class "" is the server's default (interactive).
func clusterBody(seeds []uint32, class string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"graph":"g","algo":"prnibble","seeds":[`)
	for i, s := range seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(s), 10))
	}
	fmt.Fprintf(&b, `],"procs":1,"max_members":%d,"params":{"alpha":%g,"epsilon":%g}`, maxMembers, alpha, localEps)
	if class != "" {
		fmt.Fprintf(&b, `,"class":%q`, class)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// clusterAnswer is the part of a ClusterResponse the checks read.
type clusterAnswer struct {
	Vertices int                        `json:"vertices"`
	Edges    uint64                     `json:"edges"`
	Epoch    uint64                     `json:"epoch"`
	Results  []parcluster.ClusterResult `json:"results"`
}

// reply is one answered request as the load generator saw it.
type reply struct {
	start   time.Time
	latency time.Duration
	bytes   int
	answer  clusterAnswer
	header  http.Header
}

// roundTrip sends one request and reads the whole answer. Any status but
// 200 is an error; the status is returned too, for the caller that expects
// a particular one.
func roundTrip(c *http.Client, method, url string, body []byte) (raw []byte, h http.Header, status int, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, resp.Header, resp.StatusCode, err
}

// postCluster sends one /v1/cluster request and decodes the answer.
func postCluster(c *http.Client, base string, body []byte) (reply, error) {
	start := time.Now()
	raw, h, _, err := roundTrip(c, http.MethodPost, base+"/v1/cluster", body)
	r := reply{start: start, latency: time.Since(start), bytes: len(raw), header: h}
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r.answer); err != nil {
		return r, fmt.Errorf("decoding answer: %w", err)
	}
	return r, nil
}

// streamReply is one answered /v1/cluster/stream request.
type streamReply struct {
	latency     time.Duration // request sent to trailer read
	firstResult time.Duration // request sent to the first result line
	results     []parcluster.ClusterResult
	header      http.Header
}

// postStream sends one NDJSON batch request: a header line, one line per
// seed as it completes, and a trailer line holding the aggregate.
func postStream(c *http.Client, base string, body []byte) (streamReply, error) {
	start := time.Now()
	resp, err := c.Post(base+"/v1/cluster/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		return streamReply{}, err
	}
	defer resp.Body.Close()
	r := streamReply{header: resp.Header}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var head struct {
		Results int `json:"results"`
	}
	sawTrailer := false
	for line := 0; sc.Scan(); line++ {
		switch {
		case line == 0:
			if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
				return r, fmt.Errorf("stream header: %w", err)
			}
		case bytes.HasPrefix(sc.Bytes(), []byte(`{"aggregate"`)):
			sawTrailer = true
		case bytes.HasPrefix(sc.Bytes(), []byte(`{"error"`)):
			return r, fmt.Errorf("stream ended with %s", sc.Bytes())
		default:
			if len(r.results) == 0 {
				r.firstResult = time.Since(start)
			}
			var res parcluster.ClusterResult
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				return r, fmt.Errorf("stream result line: %w", err)
			}
			r.results = append(r.results, res)
		}
	}
	r.latency = time.Since(start)
	if err := sc.Err(); err != nil {
		return r, err
	}
	if !sawTrailer || len(r.results) != head.Results {
		return r, fmt.Errorf("stream truncated: %d of %d results, trailer %v", len(r.results), head.Results, sawTrailer)
	}
	return r, nil
}

// ingestBatch is the body of POST /v1/graphs/g/edges.
type ingestBatch struct {
	Edges   [][2]uint32 `json:"edges,omitempty"`
	Deletes [][2]uint32 `json:"deletes,omitempty"`
}

// postIngest applies one batch and returns the epoch it produced.
func postIngest(c *http.Client, base string, b ingestBatch) (epoch uint64, err error) {
	body, err := json.Marshal(b)
	if err != nil {
		return 0, err
	}
	raw, _, _, err := roundTrip(c, http.MethodPost, base+"/v1/graphs/g/edges", body)
	if err != nil {
		return 0, err
	}
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	err = json.Unmarshal(raw, &out)
	return out.Epoch, err
}

// getJSON decodes a GET endpoint into dst.
func getJSON(c *http.Client, url string, dst any) error {
	raw, _, _, err := roundTrip(c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, dst)
}

func (s *server) stats(c *http.Client) (parcluster.ServiceStats, error) {
	var st parcluster.ServiceStats
	err := getJSON(c, s.base+"/v1/stats", &st)
	return st, err
}

// scrape reads /metrics into series name (with its label set, as printed) to
// value.
func (s *server) scrape(c *http.Client) (map[string]float64, error) {
	raw, _, _, err := roundTrip(c, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseMetrics(bytes.NewReader(raw))
}

// parseMetrics reads the Prometheus text exposition: "name{labels} value"
// lines, comments skipped. The key keeps the label set verbatim, so
// lgc_queue_wait_seconds_sum{class="batch"} is looked up as printed.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// parseServerTiming reads a Server-Timing header value
// ("admission;dur=0.00, kernel;dur=7.80") into span name to milliseconds.
func parseServerTiming(h string) (map[string]float64, error) {
	out := make(map[string]float64)
	if strings.TrimSpace(h) == "" {
		return out, nil
	}
	for _, part := range strings.Split(h, ",") {
		name, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if name == "" {
			return nil, fmt.Errorf("Server-Timing entry without a name in %q", h)
		}
		out[name] += 0 // an entry without a duration still names a span
		for _, p := range strings.Split(params, ";") {
			if val, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
				ms, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("Server-Timing %q: %w", part, err)
				}
				out[name] += ms
			}
		}
	}
	return out, nil
}

// serverTrace is what GET /v1/trace/{id} returns, as far as it is read here.
type serverTrace struct {
	Spans []struct {
		Name       string `json:"name"`
		StartUS    int64  `json:"start_us"`
		DurationUS int64  `json:"duration_us"`
	} `json:"spans"`
}

var errTraceEvicted = errors.New("trace evicted from the server's ring")

func (s *server) trace(c *http.Client, id string) (serverTrace, error) {
	var t serverTrace
	raw, _, status, err := roundTrip(c, http.MethodGet, s.base+"/v1/trace/"+id, nil)
	if status == http.StatusNotFound {
		return t, errTraceEvicted
	}
	if err != nil {
		return t, err
	}
	return t, json.Unmarshal(raw, &t)
}
