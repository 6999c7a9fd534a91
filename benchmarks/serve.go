package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// outcome counts operations against the number attempted. A request that
// fails, is refused, or fails a check is a failed operation.
type outcome struct {
	attempted, failed int64
	errors            []string
}

func (o *outcome) check(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errors) < 20 {
			o.errors = append(o.errors, what+": "+err.Error())
		}
	}
}

func (o *outcome) absorb(what string, l opLog) {
	o.attempted += l.attempted
	o.failed += l.failed
	if l.firstErr != nil && len(o.errors) < 20 {
		o.errors = append(o.errors, fmt.Sprintf("%s: %d of %d failed, first: %v", what, l.failed, l.attempted, l.firstErr))
	}
}

// serveRun is the state the three serve-* workloads share: the generated
// graph, the server under test, and what was measured around it.
type serveRun struct {
	e        *env
	extra    []string // server flags beyond the shipped defaults, as the workload names them
	wal      bool     // give each started server a fresh -wal-dir
	gf       graphFiles
	srv      *server
	walDir   string
	setups   []float64
	restarts []float64
	out      outcome
	tc       *traceCollector // set while a traced phase runs
}

// query sends one single-seed request and checks what can be checked on
// every answer.
func (s *serveRun) query(c *http.Client, seed uint32, class string) (reply, error) {
	r, err := postCluster(c, s.srv.base, clusterBody([]uint32{seed}, class))
	if err != nil {
		return r, err
	}
	if len(r.answer.Results) != 1 {
		return r, fmt.Errorf("%d results for one seed", len(r.answer.Results))
	}
	if err := checkResult(s.gf.g.NumVertices(), r.answer.Edges, &r.answer.Results[0]); err != nil {
		return r, fmt.Errorf("seed %d: %w", seed, err)
	}
	if s.tc != nil {
		err = s.tc.observe(r)
	}
	return r, err
}

// start brings up a server on the current graph, makes it the server under
// test, and takes a restart sample: spawn to the first 200 from /healthz,
// which with -preload means the graph is open (and, with a WAL, recovered).
// That the server then answers is checked, but not timed: what one query
// costs depends on its seed vertex.
func (s *serveRun) start() error {
	flags := s.extra
	if s.wal {
		// An hour between timed compactions leaves the pending-delta threshold
		// as the only trigger (a negative interval would stop the compactor
		// altogether, threshold kicks included).
		flags = append([]string{"-wal-dir", s.walDir, "-wal-fsync", "always", "-compact-interval", "1h"}, flags...)
	}
	srv, err := startServer(s.e, s.gf.path, flags...)
	if err != nil {
		return err
	}
	s.srv = srv
	seed := uint32(newRand(s.e.seed, streamSample, 0).Intn(s.gf.g.NumVertices()))
	if _, err := s.query(newClient(), seed, ""); err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	s.restarts = append(s.restarts, srv.coldStart.Seconds())
	return nil
}

// setup generates and packs the graph and starts the server, several times
// over so that setup_s is a median; the last server stays up.
func (s *serveRun) setup() error {
	reps := s.e.size.setupReps
	if s.e.trace {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		begin := time.Now()
		dir := filepath.Join(s.e.work, fmt.Sprintf("setup-%d", rep))
		gf, err := buildGraph(s.e, s.e.size.serveN, dir, ".lgz")
		if err != nil {
			return err
		}
		s.gf, s.walDir = gf, filepath.Join(dir, "wal")
		if err := s.start(); err != nil {
			return err
		}
		s.setups = append(s.setups, time.Since(begin).Seconds())
		if rep < reps-1 {
			s.srv.stop()
		}
	}
	s.e.rec.ServerFlags = s.srv.flags
	return nil
}

// preflight is the oracle that runs before anything is timed: sampled
// answers from the server on the packed graph equal the library's on the
// heap graph at procs=1.
func (s *serveRun) preflight() {
	c := newClient()
	r := newRand(s.e.seed, streamSample, 1)
	for i := 0; i < s.e.size.samples; i++ {
		seed := uint32(r.Intn(s.gf.g.NumVertices()))
		rep, err := s.query(c, seed, "")
		if err == nil {
			err = checkAgainstLibrary(s.gf.g, seed, &rep.answer.Results[0])
		}
		s.out.check("preflight", err)
	}
}

// moreRestarts stops the server under test and takes further restart
// samples on the same files.
func (s *serveRun) moreRestarts() error {
	for i := 0; i < s.e.size.restarts; i++ {
		s.srv.stop()
		if err := s.start(); err != nil {
			return err
		}
	}
	return nil
}

// phase is what one timed interval of a serve-* workload produced.
type phase struct {
	window time.Duration
	op     opLog           // the foreground clients
	side   opLog           // the second role, where it runs beside them
	first  []time.Duration // serve-mixed: request sent to first streamed result
	late   []time.Duration // serve-ingest: how far behind schedule the writer sent
	seeds  int64           // serve-mixed: seeds the batch client got answered
}

// serveTail is the percentile op_tail_ms reports on the serve-* workloads.
// Not p99: on serve-mixed that sits on the knee where a cache miss meets a
// lane group (p98 8 ms, p99 10 ms, p99.5 16 ms) and moved by a fifth between
// seeds on this host, while p95 held within 2%. p99 is a per-layer metric.
const serveTail = 95

// mix is a workload's client mix, run until the deadline.
type mix func(until time.Time) phase

// afterFunc is what a workload does once the timed phase is over: the side
// operation where it does not run beside the op, and the crash of
// serve-ingest. It returns the side summary and further per-layer values.
type afterFunc func(p phase) (latencySummary, values, error)

func (s *serveRun) timed(run mix, d time.Duration) phase {
	start := time.Now()
	p := run(start.Add(d))
	p.window = time.Since(start)
	return p
}

// endToEnd assembles the seven end-to-end values of a serve-* run.
func (s *serveRun) endToEnd(p phase, side latencySummary, rss float64) values {
	op := summarize(ms(p.op.latencies), serveTail)
	fmt.Fprintf(os.Stderr, "%s: op %v; side %v; restarts %.4f s\n", s.e.workload, op, side, sortedCopy(s.restarts))
	return values{
		"setup_s":     median(s.setups),
		"op_p50_ms":   op.p50,
		"op_tail_ms":  op.tail,
		"ops_per_s":   float64(len(p.op.latencies)) / p.window.Seconds(),
		"side_p50_ms": side.p50,
		"restart_s":   median(s.restarts),
		"rss_peak_mb": rss,
	}
}

// run drives one serve-* workload: set-up, oracle, warm-up, then either the
// timed phase (end-to-end metrics) or the traced pass (per-layer metrics).
func (s *serveRun) run(run mix, after afterFunc) (values, *traceFile, outcome, error) {
	defer func() {
		if s.srv != nil {
			s.srv.stop()
		}
	}()
	if err := s.setup(); err != nil {
		return nil, nil, s.out, err
	}
	s.preflight()
	if s.out.failed > 0 {
		return nil, nil, s.out, fmt.Errorf("the oracle failed before timing: %v", s.out.errors)
	}
	s.timed(run, s.e.size.warmup) // warm-up: pools filled, pages faulted in, connections up

	if s.e.trace {
		return s.traced(run, after)
	}
	p := s.timed(run, s.e.seconds)
	s.out.absorb("op", p.op)
	s.out.absorb("side", p.side)
	rss, err := s.srv.rssPeakMB()
	if err != nil {
		return nil, nil, s.out, err
	}
	side, _, err := after(p)
	if err != nil {
		return nil, nil, s.out, err
	}
	if !s.wal { // serve-ingest takes its restart samples by crashing, in after
		if err := s.moreRestarts(); err != nil {
			return nil, nil, s.out, err
		}
	}
	return s.endToEnd(p, side, rss), nil, s.out, nil
}

// clients builds n uniform-seed query clients, each with its own connection
// and its own seeded sequence.
func (s *serveRun) clients(n int) ([]*http.Client, []uniformSeeds) {
	cs := make([]*http.Client, n)
	seeds := make([]uniformSeeds, n)
	for i := range cs {
		cs[i] = newClient()
		seeds[i] = uniformSeeds{r: newRand(s.e.seed, streamQuery, i), n: s.gf.g.NumVertices()}
	}
	return cs, seeds
}

// runServeLocal: P closed-loop clients, uniform seeds; then one client alone
// for a fifth of the time, whose median is the unloaded latency (side).
func runServeLocal(e *env) (values, *traceFile, outcome, error) {
	s := &serveRun{e: e}
	var cs []*http.Client
	var seeds []uniformSeeds
	one := func(c int) (time.Duration, error) {
		r, err := s.query(cs[c], seeds[c].next(), "")
		return r.latency, err
	}
	run := func(until time.Time) phase {
		if cs == nil {
			cs, seeds = s.clients(e.procs)
		}
		return phase{op: closedLoop(e.procs, until, one)}
	}
	return s.run(run, func(phase) (latencySummary, values, error) {
		alone := closedLoop(1, time.Now().Add(e.seconds/5), one)
		s.out.absorb("side", alone)
		return summarize(ms(alone.latencies), serveTail), nil, nil
	})
}

// runServeMixed: an interactive client on a zipfian hot set beside a batch
// client streaming 64 uniform seeds per request; side is the batch request.
func runServeMixed(e *env) (values, *traceFile, outcome, error) {
	s := &serveRun{e: e, extra: []string{"-batch-lanes", strconv.Itoa(batchSeeds)}}
	var hot zipfSeeds
	var batch uniformSeeds
	inter, bulk := newClient(), newClient()
	run := func(until time.Time) phase {
		if hot.z == nil {
			n := s.gf.g.NumVertices()
			hot = newZipfSeeds(e.seed, n, e.size.hotSeeds)
			batch = uniformSeeds{r: newRand(e.seed, streamBatch, 0), n: n}
		}
		var p phase
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.side = closedLoop(1, until, func(int) (time.Duration, error) {
				seeds := make([]uint32, batchSeeds)
				for i := range seeds {
					seeds[i] = batch.next()
				}
				sr, err := postStream(bulk, s.srv.base, clusterBody(seeds, "batch"))
				if err == nil {
					err = s.checkStream(seeds, sr)
				}
				if err == nil {
					p.first = append(p.first, sr.firstResult)
					p.seeds += int64(len(sr.results))
				}
				return sr.latency, err
			})
		}()
		p.op = closedLoop(1, until, func(int) (time.Duration, error) {
			r, err := s.query(inter, hot.next(), "")
			return r.latency, err
		})
		wg.Wait()
		return p
	}
	return s.run(run, func(p phase) (latencySummary, values, error) {
		return summarize(ms(p.side.latencies), serveTail), nil, nil
	})
}

// checkStream: every seed of a batch request came back exactly once, each
// answer well-formed.
func (s *serveRun) checkStream(seeds []uint32, sr streamReply) error {
	want := make(map[uint32]int, len(seeds))
	for _, v := range seeds {
		want[v]++
	}
	for i := range sr.results {
		res := &sr.results[i]
		if len(res.Seeds) != 1 || want[res.Seeds[0]] == 0 {
			return fmt.Errorf("stream result for seeds %v was not asked for", res.Seeds)
		}
		want[res.Seeds[0]]--
		if err := checkResult(s.gf.g.NumVertices(), s.gf.g.NumEdges(), res); err != nil {
			return fmt.Errorf("seed %d: %w", res.Seeds[0], err)
		}
	}
	if s.tc != nil {
		s.tc.observeStream(sr)
	}
	return nil
}
