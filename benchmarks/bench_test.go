package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parcluster"
)

// The global-diffusion workload re-executes its own binary as the process
// under test; under go test that binary is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		if err := childMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPickPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := pickPercentile(c.n)
		t.Logf("n=%d samples: highest percentile with ten beyond it is p%g", c.n, got)
		if got != c.want {
			t.Errorf("pickPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 1980 {
		t.Errorf("p99 of 1..2000 = %g, want 1980 (20 samples beyond)", got)
	}
	if got := percentile(xs[:5], 99); got != 5 {
		t.Errorf("p99 of five samples = %g, want the slowest", got)
	}
}

// Python: statistics.quantiles([1.2,0.9,1.1,1.0,1.5,1.3,0.8,1.05,1.15,1.25], n=4)
// -> [0.975, 1.125, 1.2625]
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1.2, 0.9, 1.1, 1.0, 1.5, 1.3, 0.8, 1.05, 1.15, 1.25}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-0.975) > 1e-12 || math.Abs(q3-1.2625) > 1e-12 || math.Abs(median(xs)-1.125) > 1e-12 {
		t.Errorf("quartiles = %g, %g, median %g; Python gives 0.975, 1.2625, 1.125", q1, q3, median(xs))
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const interval = 5 * time.Millisecond
	start := time.Now()
	log := openLoop(start, interval, start.Add(10*interval), func(i int) error {
		if i == 2 {
			time.Sleep(4 * interval) // a stall: operations 3..6 fall due meanwhile
		}
		return nil
	})
	if got := log.attempted; got != 10 {
		t.Fatalf("%d operations issued, want 10: the schedule does not wait for a stall", got)
	}
	// Operation 3 was due one interval after 2 but could only be sent once
	// 2 had returned: about three intervals late, and its latency says so.
	if late := log.late[3]; late < 2*interval {
		t.Errorf("operation 3 reported %v late, want about %v", late, 3*interval)
	}
	if lat := log.latencies[3]; lat < 2*interval {
		t.Errorf("operation 3 latency %v does not count the wait since it was due", lat)
	}
	if late := log.late[1]; late > interval {
		t.Errorf("operation 1 reported %v late before any stall", late)
	}
	if late := log.late[9]; late > interval {
		t.Errorf("operation 9 reported %v late: the sender never caught up", late)
	}
}

func TestParseServerTimingFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "server-timing.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseServerTiming(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"admission": 0, "graph_load": 0.01, "queue_wait": 0.01, "kernel": 7.80, "sweep": 2.14}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, ms := range want {
		if got[name] != ms {
			t.Errorf("%s = %g ms, want %g", name, got[name], ms)
		}
	}
	if _, err := parseServerTiming("kernel;dur=fast"); err == nil {
		t.Error("a non-numeric duration parsed")
	}
}

func TestParseMetricsFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseMetrics(f)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"lgc_queries_total":                                      6,
		"lgc_wal_fsyncs_total":                                   0,
		`lgc_graph_mapped_bytes{graph="g"}`:                      1.1665461e+07,
		`lgc_sched_admitted_total{class="interactive"}`:          5,
		`lgc_queue_wait_seconds_sum{class="batch"}`:              1.047e-05,
		`lgc_queue_wait_seconds_bucket{class="batch",le="+Inf"}`: 2,
		`lgc_request_duration_seconds_count{algo="prnibble",class="interactive",outcome="ok"}`: 5,
	} {
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", series, v, ok, want)
		}
	}
	if _, err := parseMetrics(strings.NewReader("lgc_queries_total six\n")); err == nil {
		t.Error("a non-numeric sample parsed")
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	draw := func(seed uint64) string {
		var b strings.Builder
		u := uniformSeeds{r: newRand(seed, streamQuery, 1), n: 240_000}
		z := newZipfSeeds(seed, 240_000, 4096)
		for i := 0; i < 50; i++ {
			fmt.Fprintf(&b, "%d %d ", u.next(), z.next())
		}
		m := newEdgeModel(parcluster.MustGenerate("caveman", map[string]int{"cliques": 8, "k": 8}), newRand(seed, streamIngest, 0))
		for i := 0; i < 3; i++ {
			batch := m.next()
			m.applied(batch)
			fmt.Fprint(&b, batch.Edges[:4], batch.Deletes, " ")
		}
		return b.String()
	}
	if draw(7) != draw(7) {
		t.Error("the same seed drew two request sequences")
	}
	if draw(7) == draw(8) {
		t.Error("seeds 7 and 8 drew the same request sequence")
	}
	if a, b := newRand(7, streamQuery, 0).Int63(), newRand(7, streamQuery, 1).Int63(); a == b {
		t.Error("two clients of one run share a sequence")
	}
	body := string(clusterBody([]uint32{5, 9}, "batch"))
	want := `{"graph":"g","algo":"prnibble","seeds":[5,9],"procs":1,"max_members":100,"params":{"alpha":0.01,"epsilon":1e-05},"class":"batch"}`
	if body != want {
		t.Errorf("request body\n %s\nwant\n %s", body, want)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 100, 150, 60, 100, 130, 80, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within the bound", lower, steady, scale(steady, 1.05), "same"},
		{"latency up a fifth", lower, steady, scale(steady, 1.2), "worse"},
		{"latency down a fifth", lower, steady, scale(steady, 0.8), "better"},
		{"throughput down a fifth", higher, steady, scale(steady, 0.8), "worse"},
		{"throughput up a fifth", higher, steady, scale(steady, 1.2), "better"},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.2), "unresolved"},
		{"one side missing", lower, steady, nil, "unresolved"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartUS: 0, EndUS: 1000},
		{ID: 2, Parent: 1, Name: "service.kernel", StartUS: 100, EndUS: 700},
		{ID: 3, Parent: 1, Name: "service.sweep", StartUS: 700, EndUS: 900},
		{ID: 4, Parent: 2, Name: "ligra.round.dense", StartUS: 150, EndUS: 650},
	}
	got := selfTimes(spans)
	for name, want := range map[string]float64{"request": 200, "service.kernel": 100, "service.sweep": 200, "ligra.round.dense": 500} {
		if got[name] != want {
			t.Errorf("self time of %s = %g us, want %g", name, got[name], want)
		}
	}
}

// BENCHMARK.json is written by hand; the tables in metrics.go are what the
// program prints. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Errorf("%s in BENCHMARK.json\n %s\nin metrics.go\n %s", what, g, w)
		}
	}
	same("workloads", spec.Workloads, workloads)
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(spec.PerLayer), len(spec.EndToEnd))
	}
	for _, w := range spec.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters; the contract allows one line of 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound of %s is %g, outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
}

// The smoke run: all four workloads on gen.Small with one-second phases,
// oracle included, in under fifteen seconds once lgc-serve is built; then
// their traced passes, which must fill every per-layer metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns lgc-serve")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build lgc-serve with")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{root: root, seconds: time.Second, size: smokeSize, smoke: true}
	defer b.cleanup()
	bin, _, err := ensureServer(root)
	if err != nil {
		t.Fatal(err)
	}
	b.serverBin = bin
	pass := func(trace bool, defs []metricDef) {
		for _, w := range workloads {
			run, err := b.runOne(w.Name, 1, trace)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !run.Result.Correct || run.Result.Attempted < 1 || len(run.Result.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): correct %v, attempted %d, %d of %d metrics",
					w.Name, trace, run.Result.Correct, run.Result.Attempted, len(run.Result.Metrics), len(defs))
			}
		}
	}
	start := time.Now()
	pass(false, endToEnd)
	if took := time.Since(start); took > 15*time.Second && !raceEnabled {
		t.Errorf("the smoke run took %v, want under 15 s", took)
	}
	pass(true, perLayer)
}
